// SchedulePolicy unit tests plus the engine's policy-dispatch behavior:
// explicit FIFO matches the built-in fast path, random shuffles are
// seed-deterministic, recorded traces replay exactly, Yield ordering is
// policy-controlled, and ScheduleAt's clamp keeps replays stable.

#include "src/sim/schedule.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {
namespace {

std::vector<int> RunTenSameInstant(SchedulePolicy* policy) {
  Engine engine;
  engine.set_schedule_policy(policy);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(Micros(5), [&order, i] { order.push_back(i); });
  }
  engine.Run();
  return order;
}

TEST(SchedulePolicyTest, FormatParseRoundTrip) {
  const DecisionTrace trace{0, 2, 1, 7};
  EXPECT_EQ(FormatDecisionTrace(trace), "0,2,1,7");
  EXPECT_EQ(ParseDecisionTrace("0,2,1,7"), trace);
  EXPECT_TRUE(ParseDecisionTrace("").empty());
  EXPECT_TRUE(ParseDecisionTrace("-").empty());
  EXPECT_EQ(FormatDecisionTrace({}), "");
}

TEST(SchedulePolicyTest, ExplicitFifoMatchesFastPath) {
  FifoPolicy fifo;
  const std::vector<int> with_policy = RunTenSameInstant(&fifo);
  const std::vector<int> fast_path = RunTenSameInstant(nullptr);
  EXPECT_EQ(with_policy, fast_path);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(with_policy[static_cast<size_t>(i)], i);
  }
  // 10 ready events dispatched one at a time: 9 decision points (the last
  // survivor is a singleton), each picking index 0.
  ASSERT_EQ(fifo.decisions().size(), 9u);
  for (const Decision& d : fifo.decisions()) {
    EXPECT_EQ(d.choice, 0u);
  }
  EXPECT_EQ(fifo.decisions().front().arity, 10u);
  EXPECT_EQ(fifo.decisions().back().arity, 2u);
}

TEST(SchedulePolicyTest, RandomShuffleIsSeedDeterministicAndReplayable) {
  RandomShufflePolicy a(1234);
  const std::vector<int> order_a = RunTenSameInstant(&a);
  RandomShufflePolicy b(1234);
  const std::vector<int> order_b = RunTenSameInstant(&b);
  EXPECT_EQ(order_a, order_b);

  RandomShufflePolicy c(99);
  const std::vector<int> order_c = RunTenSameInstant(&c);
  EXPECT_NE(order_a, order_c);  // astronomically unlikely to collide

  // The recorded decisions replay to the identical order.
  ReplayPolicy replay(a.choices());
  EXPECT_EQ(RunTenSameInstant(&replay), order_a);
}

TEST(SchedulePolicyTest, ReplayFallsBackToFifoPastTheTrace) {
  // Force only the first decision (pick the last ready event); the rest run
  // FIFO.
  ReplayPolicy replay(DecisionTrace{9});
  const std::vector<int> order = RunTenSameInstant(&replay);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order[0], 9);
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i - 1);
  }
  EXPECT_TRUE(replay.exhausted());
}

TEST(SchedulePolicyTest, ReplayClampsOutOfRangeChoice) {
  ReplayPolicy replay(DecisionTrace{250});
  const std::vector<int> order = RunTenSameInstant(&replay);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order[0], 9);  // clamped to the largest index
}

TEST(SchedulePolicyTest, StrictReplayThrowsOnDivergence) {
  ReplayPolicy replay(DecisionTrace{250});
  replay.set_strict(true);
  Engine engine;
  engine.set_schedule_policy(&replay);
  for (int i = 0; i < 3; ++i) {
    engine.ScheduleAt(Micros(1), [] {});
  }
  EXPECT_THROW(engine.Run(), ScheduleDivergence);
}

TEST(SchedulePolicyTest, SingletonInstantsConsumeNoDecisions) {
  FifoPolicy fifo;
  Engine engine;
  engine.set_schedule_policy(&fifo);
  for (int i = 0; i < 5; ++i) {
    engine.ScheduleAt(Micros(i), [] {});  // all at distinct instants
  }
  engine.Run();
  EXPECT_TRUE(fifo.decisions().empty());
}

TEST(SchedulePolicyTest, YieldOrderingIsPolicyControlled) {
  // Two actors yield at the same instant; under FIFO A's continuation runs
  // before B's, and a trace can flip that — proof that Yield() resumption
  // goes through the policy like every other same-instant event.
  auto run = [](SchedulePolicy* policy) {
    Engine engine;
    engine.set_schedule_policy(policy);
    std::string log;
    auto actor = [](Engine& eng, std::string* out, char tag) -> Task<void> {
      out->push_back(tag);
      co_await eng.Yield();
      out->push_back(static_cast<char>(tag + ('x' - 'A')));
    };
    engine.Spawn(actor(engine, &log, 'A'));
    engine.Spawn(actor(engine, &log, 'B'));
    engine.Run();
    return log;
  };
  EXPECT_EQ(run(nullptr), "ABxy");
  ReplayPolicy flip(DecisionTrace{1});
  EXPECT_EQ(run(&flip), "AByx");
}

TEST(SchedulePolicyTest, PastScheduleClampsUnderReplayKeepingTraceStable) {
  // An actor schedules into the past at a contended instant. The clamp pins
  // the event to now(), so the ready sets — and therefore the decision
  // arities — are identical run to run, and a recorded trace replays to the
  // same order.
  auto run = [](SchedulePolicy* policy) {
    Engine engine;
    engine.set_schedule_policy(policy);
    std::vector<int> order;
    engine.ScheduleAt(Micros(10), [&engine, &order] {
      order.push_back(0);
      engine.ScheduleAt(Micros(2), [&order] { order.push_back(1); });  // past: clamped
    });
    engine.ScheduleAt(Micros(10), [&order] { order.push_back(2); });
    engine.ScheduleAt(Micros(10), [&order] { order.push_back(3); });
    engine.Run();
    return order;
  };
  RandomShufflePolicy random(7);
  const std::vector<int> sampled = run(&random);
  ReplayPolicy replay(random.choices());
  EXPECT_EQ(run(&replay), sampled);
}

TEST(SchedulePolicyTest, SameInstantWakeupsJoinTheReadySetInSeqOrder) {
  // A and B are queued for 5 us before the clock gets there; A then queues
  // three events for its own instant: a callback at now(), a callback in the
  // past (clamped to now()) and its own Yield(). Those three have higher
  // sequence numbers than B, so the ready sets are {A, B}, then
  // {B, now, past, yield}, and so on: index k always names the k-th lowest
  // seq among the events still pending.
  auto run = [](SchedulePolicy* policy) {
    Engine engine;
    engine.set_schedule_policy(policy);
    std::vector<std::string> order;
    engine.Spawn([](Engine& eng, std::vector<std::string>* out) -> Task<void> {
      co_await eng.Sleep(Micros(5));
      out->push_back("A");
      eng.ScheduleAt(eng.now(), [out] { out->push_back("now"); });
      eng.ScheduleAt(Micros(1), [out] { out->push_back("past"); });
      co_await eng.Yield();
      out->push_back("yield");
    }(engine, &order));
    engine.ScheduleAt(Micros(5), [&order] { order.push_back("B"); });
    engine.Run();
    return order;
  };

  using Order = std::vector<std::string>;
  FifoPolicy fifo;
  EXPECT_EQ(run(&fifo), (Order{"A", "B", "now", "past", "yield"}));
  EXPECT_EQ(run(nullptr), (Order{"A", "B", "now", "past", "yield"}));
  std::vector<uint32_t> arities;
  for (const Decision& d : fifo.decisions()) {
    arities.push_back(d.arity);
  }
  EXPECT_EQ(arities, (std::vector<uint32_t>{2, 4, 3, 2}));

  // {A, B} -> A; {B, now, past, yield} -> past; {B, now, yield} -> yield;
  // {B, now} -> now; then B alone.
  ReplayPolicy replay(DecisionTrace{0, 2, 2, 1});
  replay.set_strict(true);
  EXPECT_EQ(run(&replay), (Order{"A", "past", "yield", "now", "B"}));
}

}  // namespace
}  // namespace sim
