// Extension: RFP throughput before / during / after injected faults.
//
// One echo cluster (1 server x 4 threads, 8 clients on 2 nodes) runs with
// the channel fault-tolerance options enabled (fetch timeout + backoff,
// response checksums, transparent reconnect). For each fault class of
// src/fault/ a scripted FaultPlan disturbs the middle 2 ms of the run, and
// the table reports throughput in the clean lead-in, the fault window, and
// the recovery tail, plus the recovery events the channels booked.
//
// Expected shape (asserted by tests/fault/fault_matrix_test.cc):
//   * transient faults (stall, degrade, burst, qp error, corruption) recover
//     to within a few percent of the pre-fault baseline;
//   * a server-thread crash degrades throughput for the crash window
//     (1 of 4 workers dark) without deadlocking — the surviving threads keep
//     serving, and the crashed thread's pending requests complete after
//     restart;
//   * every response that completes is bit-correct: the drivers re-derive
//     the expected payload from the request and count mismatches (always 0).

#include "bench/common.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"

namespace {

constexpr int kServerThreads = 4;
constexpr int kClientNodes = 2;
constexpr int kClientThreads = 8;
constexpr uint32_t kResponseBytes = 32;

// Phase boundaries: warmup, clean baseline, fault window, recovery tail.
const sim::Time kBaselineStart = sim::Millis(1);
const sim::Time kFaultStart = sim::Millis(3);
const sim::Time kFaultEnd = sim::Millis(5);
const sim::Time kRunEnd = sim::Millis(9);

std::byte ExpectedByte(std::span<const std::byte> req, size_t i) {
  return req[i % req.size()] ^ static_cast<std::byte>(static_cast<uint8_t>(i * 73 + 11));
}

sim::Task<void> Driver(sim::Engine& eng, rfp::RpcClient* client, uint64_t* ops,
                       uint64_t* mismatches) {
  std::vector<std::byte> req(8);
  std::vector<std::byte> resp(256);
  uint64_t n = 0;
  while (eng.now() < kRunEnd) {
    ++n;
    for (size_t i = 0; i < req.size(); ++i) {
      req[i] = static_cast<std::byte>(static_cast<uint8_t>(n >> (8 * i)));
    }
    const size_t got = co_await client->Call(1, req, resp);
    if (got != kResponseBytes) {
      ++*mismatches;
    } else {
      for (size_t i = 0; i < kResponseBytes; ++i) {
        if (resp[i] != ExpectedByte(req, i)) {
          ++*mismatches;
          break;
        }
      }
    }
    ++*ops;
  }
}

struct Outcome {
  double before_mops = 0;
  double during_mops = 0;
  double after_mops = 0;
  rfp::Channel::Stats stats;
  uint64_t mismatches = 0;
  uint64_t injected = 0;
};

// Runs one cluster with `build_plan` supplying the fault schedule once the
// channels exist (corruption events need their rkeys).
Outcome RunClass(
    const std::function<void(fault::FaultPlan&, const std::vector<rfp::Channel*>&)>& build_plan) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }

  rfp::RpcServer server(fabric, server_node, kServerThreads);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < kResponseBytes; ++i) {
      resp[i] = ExpectedByte(req, i);
    }
    return rfp::HandlerResult{kResponseBytes, sim::Nanos(1000)};
  });

  rfp::RfpOptions options;
  options.fetch_timeout_ns = sim::Micros(150);
  options.fetch_backoff_initial_ns = sim::Micros(2);
  options.checksum_responses = true;

  std::vector<rfp::Channel*> channels;
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  std::vector<uint64_t> ops(kClientThreads, 0);
  std::vector<uint64_t> mismatches(kClientThreads, 0);
  for (int t = 0; t < kClientThreads; ++t) {
    rfp::Channel* channel = server.AcceptChannel(*client_nodes[static_cast<size_t>(t % kClientNodes)], options,
                                                 t % kServerThreads);
    channels.push_back(channel);
    stubs.push_back(std::make_unique<rfp::RpcClient>(channel));
  }
  server.Start();

  fault::FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server);
  fault::FaultPlan plan;
  build_plan(plan, channels);
  injector.Arm(plan);

  for (int t = 0; t < kClientThreads; ++t) {
    engine.Spawn(Driver(engine, stubs[static_cast<size_t>(t)].get(),
                        &ops[static_cast<size_t>(t)], &mismatches[static_cast<size_t>(t)]));
  }

  const auto total = [&ops] {
    uint64_t sum = 0;
    for (uint64_t o : ops) {
      sum += o;
    }
    return sum;
  };
  uint64_t at_baseline = 0;
  uint64_t at_fault = 0;
  uint64_t at_recovery = 0;
  engine.ScheduleAt(kBaselineStart, [&] { at_baseline = total(); });
  engine.ScheduleAt(kFaultStart, [&] { at_fault = total(); });
  engine.ScheduleAt(kFaultEnd, [&] { at_recovery = total(); });
  engine.RunUntil(kRunEnd);
  server.Stop();

  const auto mops = [](uint64_t n, sim::Time window) {
    return static_cast<double>(n) / sim::ToSeconds(window) / 1e6;
  };
  Outcome out;
  out.before_mops = mops(at_fault - at_baseline, kFaultStart - kBaselineStart);
  out.during_mops = mops(at_recovery - at_fault, kFaultEnd - kFaultStart);
  out.after_mops = mops(total() - at_recovery, kRunEnd - kFaultEnd);
  for (rfp::Channel* channel : channels) {
    obs::Merge(out.stats, channel->stats());
  }
  for (uint64_t m : mismatches) {
    out.mismatches += m;
  }
  out.injected = injector.injected();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);

  using Builder = std::function<void(fault::FaultPlan&, const std::vector<rfp::Channel*>&)>;
  struct Class {
    const char* name;
    Builder build;
  };
  const sim::Time window = kFaultEnd - kFaultStart;
  const std::vector<Class> classes = {
      {"none", [](fault::FaultPlan&, const std::vector<rfp::Channel*>&) {}},
      {"nic_stall",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         // Four 150 us in-bound stalls of the server NIC across the window.
         for (int i = 0; i < 4; ++i) {
           plan.NicStall(kFaultStart + i * (window / 4), 0, /*inbound=*/true, sim::Micros(150));
         }
       }},
      {"nic_degrade",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         plan.NicDegrade(kFaultStart, 0, /*inbound=*/true, /*factor=*/6.0, window);
       }},
      {"link_burst",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         for (uint32_t client = 1; client <= kClientNodes; ++client) {
           plan.LinkBurst(kFaultStart, 0, client, /*loss_prob=*/0.3,
                          /*extra_delay_ns=*/sim::Micros(2), window);
         }
       }},
      {"server_crash",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         plan.ServerCrash(kFaultStart, 0, /*thread=*/0, window);
       }},
      {"qp_error",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         for (int i = 0; i < 3; ++i) {
           for (uint32_t client = 1; client <= kClientNodes; ++client) {
             plan.QpError(kFaultStart + i * (window / 3), 0, client);
           }
         }
       }},
      {"corrupt_region",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>& channels) {
         // Flip response-payload bytes of every channel every 100 us.
         for (int i = 0; i < 20; ++i) {
           for (size_t c = 0; c < channels.size(); ++c) {
             plan.CorruptRegion(kFaultStart + i * (window / 20), channels[c]->server_rkey(),
                                channels[c]->response_offset() + rfp::kHeaderBytes, 16,
                                /*seed=*/static_cast<uint64_t>(i) * 100 + c);
           }
         }
       }},
  };

  bench::PrintTitle("Extension: fault tolerance (32 B echo; fault window 3-5 ms)");
  bench::PrintHeader({"fault", "before_mops", "during_mops", "after_mops", "after/before",
                      "timeouts", "reconnects", "reissues", "corrupt", "mismatches"});
  for (const Class& cls : classes) {
    const Outcome out = RunClass(cls.build);
    bench::PrintRow({cls.name, bench::Fmt(out.before_mops), bench::Fmt(out.during_mops),
                     bench::Fmt(out.after_mops),
                     bench::Fmt(out.before_mops > 0 ? out.after_mops / out.before_mops : 0, 3),
                     bench::FmtInt(out.stats.fetch_timeouts), bench::FmtInt(out.stats.reconnects),
                     bench::FmtInt(out.stats.reissues), bench::FmtInt(out.stats.corrupt_fetches),
                     bench::FmtInt(out.mismatches)});
  }
  std::printf(
      "\nexpected: after/before ~1.0 for every transient fault (the channels detect,\n"
      "recover, and resume the pre-fault rate); during the server-thread crash the\n"
      "cluster degrades to roughly 3/4 capacity but never deadlocks, and all rows\n"
      "report 0 payload mismatches\n");
  return 0;
}
