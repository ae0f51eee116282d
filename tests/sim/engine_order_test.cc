// Property test of the engine's dispatch order. A seeded random mix of
// coroutine sleeps, Yield(), Notifier handoffs, spawned actors and callbacks
// scheduled at, before and after now() runs on the engine in RunUntil slices
// (some with deadlines already in the past). Every schedule is mirrored into
// a reference model — a std::priority_queue ordered by (time, seq) — and the
// engine must dispatch exactly the model's order, at the model's times, with
// events_processed() equal to the model's dispatch count after every slice.

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/schedule.h"
#include "src/sim/signal.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {
namespace {

// (when, id) of one dispatched event.
using Dispatch = std::pair<Time, int>;

class ReferenceQueue {
 public:
  void Push(Time when, int id) { queue_.push(Item{when, next_seq_++, id}); }

  // Dispatches everything due by `deadline`, as Engine::RunUntil does.
  void RunUntil(Time deadline, std::vector<Dispatch>* out) {
    while (!queue_.empty() && queue_.top().when <= deadline) {
      out->emplace_back(queue_.top().when, queue_.top().id);
      queue_.pop();
    }
  }

  bool empty() const { return queue_.empty(); }

 private:
  struct Item {
    Time when;
    uint64_t seq;
    int id;
  };
  struct RunsLater {
    bool operator()(const Item& a, const Item& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::priority_queue<Item, std::vector<Item>, RunsLater> queue_;
  uint64_t next_seq_ = 0;
};

class Mix {
 public:
  Mix(Engine& engine, uint64_t seed) : engine_(engine), notifier_(engine), rng_(seed) {}

  const std::vector<Dispatch>& fired() const { return fired_; }
  ReferenceQueue& model() { return model_; }
  bool has_waiters() const { return !waiting_.empty(); }
  Rng& rng() { return rng_; }

  void SpawnActor(int steps) { engine_.Spawn(Actor(steps)); }

  // Schedules a callback at now(), in the past or in the future.
  void ScheduleCallback() {
    const int id = next_id_++;
    Time when = engine_.now();
    switch (rng_.NextBounded(3)) {
      case 0:
        break;
      case 1:
        when -= 1 + static_cast<Time>(rng_.NextBounded(5));
        break;
      default:
        when += 1 + static_cast<Time>(rng_.NextBounded(20));
        break;
    }
    model_.Push(std::max(when, engine_.now()), id);
    engine_.ScheduleAt(when, [this, id] {
      Fired(id);
      SideEffect();
    });
  }

  void NotifyOne() {
    if (!waiting_.empty()) {
      model_.Push(engine_.now(), waiting_.front());
      waiting_.pop_front();
    }
    notifier_.NotifyOne();
  }

  void NotifyAll() {
    while (!waiting_.empty()) {
      NotifyOne();
    }
  }

 private:
  void Fired(int id) { fired_.emplace_back(engine_.now(), id); }

  void SideEffect() {
    if (budget_ <= 0) {
      return;
    }
    --budget_;
    switch (rng_.NextBounded(4)) {
      case 0:
        ScheduleCallback();
        break;
      case 1:
        NotifyOne();
        break;
      case 2:
        SpawnActor(3);
        break;
      default:
        break;
    }
  }

  Task<void> Actor(int steps) {
    for (int i = 0; i < steps; ++i) {
      const int id = next_id_++;
      switch (rng_.NextBounded(6)) {
        case 0: {
          static constexpr Time kDelays[] = {0, 1, 3, 10};
          const Time delay = kDelays[rng_.NextBounded(4)];
          if (delay > 0) {  // Sleep(0) completes without an event
            model_.Push(engine_.now() + delay, id);
          }
          co_await engine_.Sleep(delay);
          if (delay > 0) {
            Fired(id);
          }
          break;
        }
        case 1:
          model_.Push(engine_.now(), id);
          co_await engine_.Yield();
          Fired(id);
          break;
        case 2:
          waiting_.push_back(id);
          co_await notifier_.Wait();
          Fired(id);
          break;
        case 3:
          NotifyOne();
          break;
        default:
          ScheduleCallback();
          break;
      }
    }
  }

  Engine& engine_;
  Notifier notifier_;
  Rng rng_;
  ReferenceQueue model_;
  std::vector<Dispatch> fired_;
  std::deque<int> waiting_;  // Notifier waiters, in wake-up order
  int next_id_ = 0;
  int budget_ = 400;  // side effects callbacks may still take
};

// Runs one seeded mix to completion, checking the engine against the model
// after every slice. Returns the dispatch order.
std::vector<Dispatch> RunMix(uint64_t seed, SchedulePolicy* policy) {
  Engine engine;
  engine.set_schedule_policy(policy);
  Mix mix(engine, seed);
  std::vector<Dispatch> expected;
  for (int a = 0; a < 6; ++a) {
    mix.SpawnActor(60);
  }
  for (int slice = 0; slice < 40; ++slice) {
    // Deadlines step -5..+14 ns: some land before now().
    const Time deadline = engine.now() - 5 + static_cast<Time>(mix.rng().NextBounded(20));
    if (mix.rng().NextBounded(2) == 0) {
      mix.ScheduleCallback();
    }
    const Time before = engine.now();
    engine.RunUntil(deadline);
    mix.model().RunUntil(deadline, &expected);
    EXPECT_EQ(engine.now(), std::max(before, deadline)) << "slice " << slice;
    EXPECT_EQ(mix.fired(), expected) << "slice " << slice;
    EXPECT_EQ(engine.events_processed(), expected.size()) << "slice " << slice;
  }
  // Drain, waking any actor still parked on the notifier.
  do {
    mix.NotifyAll();
    engine.Run();
    mix.model().RunUntil(engine.now(), &expected);
  } while (mix.has_waiters());
  EXPECT_TRUE(mix.model().empty());
  EXPECT_EQ(mix.fired(), expected);
  EXPECT_EQ(engine.events_processed(), expected.size());
  EXPECT_EQ(engine.live_actors(), 0);
  return mix.fired();
}

TEST(EngineOrderTest, RandomMixMatchesReferenceQueue) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Dispatch> order = RunMix(seed, nullptr);
    EXPECT_GT(order.size(), 300u);
  }
}

TEST(EngineOrderTest, FifoPolicyPathMatchesReferenceQueue) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    FifoPolicy fifo;
    const std::vector<Dispatch> with_policy = RunMix(seed, &fifo);
    EXPECT_EQ(with_policy, RunMix(seed, nullptr));
    EXPECT_FALSE(fifo.decisions().empty());
    for (const Decision& d : fifo.decisions()) {
      EXPECT_EQ(d.choice, 0u);
    }
  }
}

}  // namespace
}  // namespace sim
