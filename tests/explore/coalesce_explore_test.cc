// Coalesced request WRITEs under schedule exploration: a pipelined Jakiro
// with small ring blocks, so each MultiGet's staged chunks leave as one
// spanning WRITE, crossed with a QP error that forces the spans through the
// reconnect-and-re-post path. Every explored schedule must keep the
// client-visible history linearizable and the strict checker quiet.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/explore/explorer.h"
#include "src/explore/history.h"
#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/schedule.h"
#include "src/sim/time.h"

namespace explore {
namespace {

constexpr int kKeys = 4;
constexpr int kRounds = 3;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

std::string Key(int i) { return "key-" + std::to_string(i); }

// Totals across the explored schedules, so the test can confirm the
// scenario really coalesced and really crossed a reconnect.
struct Totals {
  uint64_t coalesced_writes = 0;
  uint64_t reconnects = 0;
};

// One server thread, window-4 channels with 128-byte messages (so four
// staged MultiGet chunks fit the coalescing size rule), fault tolerance on.
// A writer PUTs new values for every key each round while a reader MultiGets
// all keys; the fault plan errors the reader's RC pair mid-run.
Scenario PipelinedJakiroScenario(Totals* totals) {
  return [totals](ScenarioRun& run) -> Outcome {
    sim::Engine& eng = run.engine;
    rdma::Fabric fabric(eng);
    rdma::Node& server_node = fabric.AddNode("server");
    rdma::Node& writer_node = fabric.AddNode("writer");
    rdma::Node& reader_node = fabric.AddNode("reader");
    kv::JakiroConfig config = kv::JakiroConfig::Build().FaultTolerant().Pipelined(4);
    config.server_threads = 1;
    config.buckets_per_partition = 64;
    config.channel_options.max_message_bytes = 128;
    config.channel_options.reconnect_delay_ns = sim::Micros(2);
    kv::JakiroServer server(fabric, server_node, config);
    kv::JakiroClient writer(server, writer_node);
    kv::JakiroClient reader(server, reader_node);
    HistoryRecorder rec;
    writer.set_history_recorder(&rec);
    reader.set_history_recorder(&rec);
    server.Start();

    fault::FaultInjector injector(fabric);
    injector.Arm(run.plan);

    eng.Spawn([](kv::JakiroClient* cl) -> sim::Task<void> {
      for (int r = 0; r < kRounds; ++r) {
        for (int k = 0; k < kKeys; ++k) {
          const std::string value = "v" + std::to_string(r) + "-" + std::to_string(k);
          (void)co_await cl->Put(AsBytes(Key(k)), AsBytes(value));
        }
      }
    }(&writer));
    bool reader_done = false;
    eng.Spawn([](kv::JakiroClient* cl, bool* done) -> sim::Task<void> {
      std::vector<std::string> names;
      for (int k = 0; k < kKeys; ++k) {
        names.push_back(Key(k));
      }
      std::vector<std::span<const std::byte>> keys;
      for (const std::string& name : names) {
        keys.push_back(AsBytes(name));
      }
      std::vector<std::byte> arena(1024);
      std::vector<std::optional<std::span<const std::byte>>> values(keys.size());
      for (int r = 0; r < kRounds; ++r) {
        co_await cl->MultiGet(keys, arena, values);
      }
      *done = true;
    }(&reader, &reader_done));

    eng.RunUntil(sim::Millis(2));
    server.Stop();
    const rfp::Channel::Stats stats = reader.MergedChannelStats();
    totals->coalesced_writes += stats.coalesced_writes;
    totals->reconnects += stats.reconnects;
    if (!reader_done) {
      return Outcome::Fail("reader's MultiGets did not complete");
    }
    const std::string trace = eng.schedule_policy() != nullptr
                                  ? sim::FormatDecisionTrace(eng.schedule_policy()->choices())
                                  : std::string();
    rec.CheckStrict(trace);  // throws LinearizabilityError on violation
    return Outcome::Pass(rec.completed_ops());
  };
}

TEST(CoalesceExploreTest, PipelinedJakiroWithQpErrorIsLinearizable) {
  check::ScopedMode strict(check::Mode::kStrict);
  Options options;
  options.max_schedules = 12;
  options.exhaustive_share_pct = 50;
  options.seed = 1;
  options.label = "coalesced_jakiro";
  // Node ids follow AddNode order: server 0, writer 1, reader 2.
  fault::FaultPlan plan;
  plan.QpError(sim::Micros(6), /*a=*/0, /*b=*/2);
  options.fault_plans = {plan};
  Totals totals;
  const Report report = Explorer(options).Run(PipelinedJakiroScenario(&totals));
  EXPECT_FALSE(report.failed) << report.failure_message;
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.exhausted || report.schedules == options.max_schedules)
      << report.Summary();
  EXPECT_GE(totals.coalesced_writes, report.schedules);  // every schedule merged
  EXPECT_GE(totals.reconnects, report.schedules);        // and crossed the QP error
}

}  // namespace
}  // namespace explore
