// Micro-benchmarks of the simulator itself (google-benchmark): event
// dispatch, coroutine round trips, resource handoffs, a full simulated RDMA
// READ and an asynchronously posted WRITE. These track the cost of the
// substrate — useful when deciding how long a simulated window a bench can
// afford.

#include <optional>

#include <benchmark/benchmark.h>

#include "bench/common.h"

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace {

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.ScheduleAt(i, [] {});
    }
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventDispatch);

void BM_CoroutineSleepLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    engine.Spawn([](sim::Engine& eng) -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        co_await eng.Sleep(1);
      }
    }(engine));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSleepLoop);

void BM_ResourceHandoff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Resource resource(engine, 1);
    for (int w = 0; w < 4; ++w) {
      engine.Spawn([](sim::Resource& r) -> sim::Task<void> {
        for (int i = 0; i < 250; ++i) {
          co_await r.Use(1);
        }
      }(resource));
    }
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ResourceHandoff);

void BM_SimulatedRdmaRead(benchmark::State& state) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& a = fabric.AddNode("a");
  rdma::Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectRc(a, b);
  (void)qb;
  rdma::MemoryRegion* local = a.RegisterMemory(4096, rdma::kAccessLocal);
  rdma::MemoryRegion* remote = b.RegisterMemory(4096, rdma::kAccessRemoteRead);
  for (auto _ : state) {
    engine.Spawn([](rdma::QueuePair* qp, rdma::MemoryRegion* l,
                    rdma::MemoryRegion* r) -> sim::Task<void> {
      co_await qp->Read(*l, 0, r->remote_key(), 0, 32);
    }(qa, local, remote));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedRdmaRead);

// QueuePair::PostWrite: the spawned-actor path every asynchronous post takes
// (a Spawn wrapper frame around the WRITE task, completion pushed to the CQ).
void BM_PostedRdmaWrite(benchmark::State& state) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& a = fabric.AddNode("a");
  rdma::Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectRc(a, b);
  (void)qb;
  rdma::MemoryRegion* local = a.RegisterMemory(4096, rdma::kAccessLocal);
  rdma::MemoryRegion* remote = b.RegisterMemory(4096, rdma::kAccessRemoteWrite);
  uint64_t wr_id = 0;
  for (auto _ : state) {
    qa->PostWrite(wr_id++, *local, 0, remote->remote_key(), 0, 32);
    engine.Run();
    std::optional<rdma::WorkCompletion> wc = qa->send_cq()->Poll();
    benchmark::DoNotOptimize(wc);
    if (!wc || !wc->ok()) {
      state.SkipWithError("posted WRITE did not complete");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PostedRdmaWrite);

void BM_HistogramRecord(benchmark::State& state) {
  sim::Histogram histogram;
  int64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0xffffff;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

// Custom main so bench::Init can strip --json/--trace before
// google-benchmark sees (and rejects) them.
int main(int argc, char** argv) {
  bench::Init(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
