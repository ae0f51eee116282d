// CompletionQueue::WaitUntil: a wait bounded by a deadline. It must wake on
// the first of Push and the deadline, leave nothing behind that runs once
// the other one won, and stay memory-safe when the waiting frame or the CQ
// dies before the deadline (the sanitizer build checks the last two).

#include "src/rdma/cq.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace rdma {
namespace {

struct Outcome {
  bool done = false;
  bool arrived = false;
  sim::Time at = -1;
};

sim::Task<void> WaitOnce(sim::Engine& engine, CompletionQueue& cq, sim::Time deadline,
                         Outcome* out) {
  out->arrived = co_await cq.WaitUntil(deadline);
  out->at = engine.now();
  out->done = true;
}

TEST(CqWaitUntilTest, WakesOnPushAtThePushInstant) {
  sim::Engine engine;
  CompletionQueue cq(engine);
  Outcome out;
  engine.Spawn(WaitOnce(engine, cq, sim::Micros(10), &out));
  engine.ScheduleAt(sim::Micros(3), [&] { cq.Push(WorkCompletion{.wr_id = 7}); });
  engine.Run();
  ASSERT_TRUE(out.done);
  EXPECT_TRUE(out.arrived);
  EXPECT_EQ(out.at, sim::Micros(3));
  EXPECT_EQ(cq.depth(), 1u);  // the wait does not consume the completion
  // The deadline the push beat ran as a no-op: the clock stayed at the push.
  EXPECT_EQ(engine.now(), sim::Micros(3));
}

TEST(CqWaitUntilTest, WakesAtTheDeadlineWithoutAPush) {
  sim::Engine engine;
  CompletionQueue cq(engine);
  Outcome out;
  engine.Spawn(WaitOnce(engine, cq, sim::Micros(10), &out));
  engine.Run();
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.arrived);
  EXPECT_EQ(out.at, sim::Micros(10));
  // A later push finds no waiter left to wake.
  cq.Push(WorkCompletion{});
  engine.Run();
  EXPECT_EQ(out.at, sim::Micros(10));
}

TEST(CqWaitUntilTest, QueuedCompletionOrPastDeadlineCompletesWithoutSuspending) {
  sim::Engine engine;
  CompletionQueue cq(engine);
  Outcome past;
  engine.Spawn(WaitOnce(engine, cq, 0, &past));
  EXPECT_TRUE(past.done);
  EXPECT_FALSE(past.arrived);
  cq.Push(WorkCompletion{});
  Outcome queued;
  engine.Spawn(WaitOnce(engine, cq, sim::Micros(10), &queued));
  EXPECT_TRUE(queued.done);
  EXPECT_TRUE(queued.arrived);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(CqWaitUntilTest, StaleDeadlineAfterAPushCostsOneNoOpEvent) {
  sim::Engine engine;
  CompletionQueue cq(engine);
  Outcome first;
  engine.Spawn(WaitOnce(engine, cq, sim::Micros(10), &first));
  engine.ScheduleAt(sim::Micros(2), [&] { cq.Push(WorkCompletion{}); });
  engine.RunUntil(sim::Micros(2));
  ASSERT_TRUE(first.arrived);
  (void)cq.Poll();
  // A second wait on the same CQ with a later deadline: the first wait's
  // stale deadline at 10 us must neither wake it nor move the clock.
  Outcome second;
  engine.Spawn(WaitOnce(engine, cq, sim::Micros(30), &second));
  const uint64_t before = engine.events_processed();
  engine.RunUntil(sim::Micros(20));
  EXPECT_FALSE(second.done);
  EXPECT_EQ(engine.events_processed() - before, 1u);  // the stale deadline, a no-op
  engine.Run();
  EXPECT_TRUE(second.done);
  EXPECT_FALSE(second.arrived);
  EXPECT_EQ(second.at, sim::Micros(30));
}

TEST(CqWaitUntilTest, PushWakesWaitersInArrivalOrder) {
  sim::Engine engine;
  CompletionQueue cq(engine);
  Outcome a;
  Outcome b;
  engine.Spawn(WaitOnce(engine, cq, sim::Micros(10), &a));
  engine.Spawn(WaitOnce(engine, cq, CompletionQueue::kNoDeadline, &b));
  engine.ScheduleAt(sim::Micros(1), [&] { cq.Push(WorkCompletion{}); });
  engine.ScheduleAt(sim::Micros(4), [&] { cq.Push(WorkCompletion{}); });
  engine.Run();
  EXPECT_EQ(a.at, sim::Micros(1));
  EXPECT_EQ(b.at, sim::Micros(4));
  EXPECT_TRUE(a.arrived && b.arrived);
}

TEST(CqWaitUntilTest, DestroyedWaiterUnlinksAndCancelsItsDeadline) {
  sim::Engine engine;
  CompletionQueue cq(engine);
  Outcome out;
  auto handle = WaitOnce(engine, cq, sim::Micros(5), &out).Release();
  handle.resume();  // runs to the suspension inside WaitUntil
  ASSERT_FALSE(out.done);
  handle.destroy();  // the waiting frame dies before its deadline
  cq.Push(WorkCompletion{});  // wakes nobody
  engine.Run();
  EXPECT_FALSE(out.done);
  EXPECT_EQ(engine.now(), 0);  // the cancelled deadline moved no clock
  EXPECT_EQ(cq.depth(), 1u);
}

TEST(CqWaitUntilTest, DestroyedCqLeavesItsWaiterToTheDeadline) {
  sim::Engine engine;
  auto cq = std::make_unique<CompletionQueue>(engine);
  Outcome out;
  engine.Spawn(WaitOnce(engine, *cq, sim::Micros(5), &out));
  cq.reset();
  engine.Run();
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.arrived);
  EXPECT_EQ(out.at, sim::Micros(5));
}

// WaitForTick: a poll loop that found the queue empty at tick T (period P)
// resumes at the first tick T + k·P (k >= 1) at or after the push, in one
// engine event; a push landing on a tick is seen at that tick, one landing
// at T itself only at T + P, and a queued completion needs no wait.
TEST(CqWaitForTickTest, ResumesAtThePollTickThatSeesThePush) {
  struct Case {
    sim::Time push_at;
    sim::Time resumed_at;
  };
  for (const Case c : {Case{100, 300}, Case{150, 300}, Case{300, 300}, Case{301, 500},
                       Case{1299, 1300}}) {
    sim::Engine engine;
    CompletionQueue cq(engine);
    sim::Time at = -1;
    engine.ScheduleAt(100, [&] {
      engine.Spawn([](sim::Engine& e, CompletionQueue& q, sim::Time* out) -> sim::Task<void> {
        EXPECT_TRUE(co_await q.WaitForTick(e.now(), 200));
        *out = e.now();
      }(engine, cq, &at));
    });
    engine.ScheduleAt(c.push_at, [&] { cq.Push(WorkCompletion{}); });
    engine.Run();
    EXPECT_EQ(at, c.resumed_at) << "push at " << c.push_at;
    // The spawning callback, the push and the one resumption.
    EXPECT_EQ(engine.events_processed(), 3u) << "push at " << c.push_at;
  }
  sim::Engine engine;
  CompletionQueue cq(engine);
  cq.Push(WorkCompletion{});
  bool done = false;
  engine.Spawn([](CompletionQueue& q, bool* out) -> sim::Task<void> {
    EXPECT_TRUE(co_await q.WaitForTick(0, 200));
    *out = true;
  }(cq, &done));
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.now(), 0);
}

}  // namespace
}  // namespace rdma
