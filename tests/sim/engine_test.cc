#include "src/sim/engine.h"

#include <coroutine>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/task.h"
#include "src/sim/time.h"
#include "tests/testutil.h"

namespace sim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(EngineTest, ScheduledCallbacksRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(Micros(3), [&] { order.push_back(3); });
  engine.ScheduleAt(Micros(1), [&] { order.push_back(1); });
  engine.ScheduleAt(Micros(2), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Micros(3));
}

TEST(EngineTest, SameInstantEventsRunFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(Micros(5), [&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EngineTest, PastScheduleClampsToNow) {
  Engine engine;
  Time observed = -1;
  engine.ScheduleAt(Micros(10), [&] {
    engine.ScheduleAt(Micros(2), [&] { observed = engine.now(); });
  });
  engine.Run();
  EXPECT_EQ(observed, Micros(10));
}

TEST(EngineTest, SleepAdvancesVirtualTime) {
  Engine engine;
  Time woke = 0;
  engine.Spawn([](Engine& e, Time* out) -> Task<void> {
    co_await e.Sleep(Micros(7));
    *out = e.now();
  }(engine, &woke));
  engine.Run();
  EXPECT_EQ(woke, Micros(7));
}

TEST(EngineTest, ZeroSleepDoesNotSuspend) {
  Engine engine;
  bool ran = false;
  engine.Spawn([](Engine& e, bool* out) -> Task<void> {
    co_await e.Sleep(0);
    *out = true;
    co_return;
  }(engine, &ran));
  // Spawn starts the actor inline; a zero sleep must complete synchronously.
  EXPECT_TRUE(ran);
  engine.Run();
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAt(Micros(1), [&] { ++fired; });
  engine.ScheduleAt(Micros(100), [&] { ++fired; });
  EXPECT_FALSE(engine.RunUntil(Micros(10)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), Micros(10));
  EXPECT_TRUE(engine.RunUntil(Micros(1000)));
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunForIsRelative) {
  Engine engine;
  engine.ScheduleAt(Micros(5), [] {});
  engine.RunUntil(Micros(10));
  int fired = 0;
  engine.ScheduleAt(Micros(15), [&] { ++fired; });
  engine.RunFor(Micros(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), Micros(20));
}

TEST(EngineTest, DeadlineInThePastLeavesClockAlone) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(Micros(12), [&] { order.push_back(12); });
  EXPECT_FALSE(engine.RunUntil(Micros(10)));
  ASSERT_EQ(engine.now(), Micros(10));

  EXPECT_FALSE(engine.RunUntil(Micros(5)));
  EXPECT_EQ(engine.now(), Micros(10));
  EXPECT_FALSE(engine.RunFor(-Micros(3)));
  EXPECT_EQ(engine.now(), Micros(10));
  EXPECT_TRUE(order.empty());

  // Events queued at now() while a past deadline is pending stay runnable
  // and keep (time, seq) order with the later event.
  engine.ScheduleAt(engine.now(), [&] { order.push_back(10); });
  EXPECT_FALSE(engine.RunUntil(Micros(1)));
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(engine.now(), Micros(10));
  EXPECT_TRUE(engine.RunUntil(Micros(20)));
  EXPECT_EQ(order, (std::vector<int>{10, 12}));
  EXPECT_EQ(engine.now(), Micros(20));

  // A drained queue with a past deadline also keeps the clock.
  EXPECT_TRUE(engine.RunUntil(Micros(15)));
  EXPECT_EQ(engine.now(), Micros(20));
}

TEST(EngineTest, SpawnTracksLiveActors) {
  Engine engine;
  engine.Spawn([](Engine& e) -> Task<void> { co_await e.Sleep(Micros(1)); }(engine));
  engine.Spawn([](Engine& e) -> Task<void> { co_await e.Sleep(Micros(2)); }(engine));
  EXPECT_EQ(engine.live_actors(), 2);
  engine.Run();
  EXPECT_EQ(engine.live_actors(), 0);
}

TEST(EngineTest, ActorExceptionRethrownFromRun) {
  Engine engine;
  engine.Spawn([](Engine& e) -> Task<void> {
    co_await e.Sleep(Micros(1));
    throw std::runtime_error("actor failed");
  }(engine));
  EXPECT_THROW(engine.Run(), std::runtime_error);
}

TEST(EngineTest, YieldRunsAfterPendingEventsAtSameInstant) {
  Engine engine;
  std::vector<int> order;
  engine.Spawn([](Engine& e, std::vector<int>* out) -> Task<void> {
    co_await e.Sleep(Micros(1));
    out->push_back(1);
    co_await e.Yield();
    out->push_back(3);
  }(engine, &order));
  engine.ScheduleAt(Micros(1), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, NestedTaskAwaitPropagatesValue) {
  Engine engine;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.Sleep(Micros(2));
    co_return 42;
  };
  auto outer = [&inner](Engine& e) -> Task<int> {
    int v = co_await inner(e);
    co_return v + 1;
  };
  int result = rfptest::RunSync(engine, outer(engine));
  EXPECT_EQ(result, 43);
  EXPECT_EQ(engine.now(), Micros(2));
}

TEST(EngineTest, ArmedTimerResumesItsCoroutine) {
  Engine engine;
  Time woke = -1;
  engine.Spawn([](Engine& e, Time* out) -> Task<void> {
    struct ArmAwaiter {
      Engine* engine;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine->ArmTimer(Micros(4), h); }
      void await_resume() const noexcept {}
    };
    co_await ArmAwaiter{&e};
    *out = e.now();
  }(engine, &woke));
  engine.Run();
  EXPECT_EQ(woke, Micros(4));
}

TEST(EngineTest, CancelledTimerRunsNothingAndLeavesTheClock) {
  Engine engine;
  engine.ScheduleAt(Micros(1), [] {});
  const Engine::Timer timer = engine.ArmTimer(Micros(9), std::noop_coroutine());
  Engine::CancelTimer(timer);
  engine.Run();
  EXPECT_EQ(engine.events_processed(), 2u);  // the callback and the no-op
  EXPECT_EQ(engine.now(), Micros(1));
  // The slot is recycled by the next timer.
  EXPECT_EQ(engine.ArmTimer(Micros(2), std::noop_coroutine()), timer);
}

TEST(EngineTest, DeepTaskChainDoesNotOverflowStack) {
  Engine engine;
  // 50k chained awaits exercises symmetric transfer.
  auto leaf = [](Engine& e) -> Task<int> {
    co_await e.Sleep(1);
    co_return 1;
  };
  auto driver = [&leaf](Engine& e) -> Task<int> {
    int total = 0;
    for (int i = 0; i < 50000; ++i) {
      total += co_await leaf(e);
    }
    co_return total;
  };
  EXPECT_EQ(rfptest::RunSync(engine, driver(engine)), 50000);
}

}  // namespace
}  // namespace sim
