// Discrete-event simulation engine.
//
// The engine owns a virtual clock and a queue of pending events. Actors are
// coroutines (see task.h) that suspend on awaitables — Sleep(),
// Resource::Acquire(), Event::Wait() — and are resumed by the engine when
// their wake-up event fires. Events run in (time, sequence number) order: a
// monotonically increasing sequence number breaks ties, so events at equal
// timestamps run in FIFO order and every simulation is fully deterministic
// for a given seed.
//
// The queue is two structures holding 24-byte Entry records. Events due
// later than now() go to a min-heap; events due at now() (wake-ups from
// Yield, Notifier, Resource handoffs, zero-delay callbacks) go to a FIFO
// lane. Every heap entry due at now() was queued before the clock reached
// now(), so it has a lower sequence number than every lane entry and runs
// first; the two together dispatch in exactly (time, seq) order. An entry's
// target is a coroutine frame, a ScheduleAt() callback kept in a slab, or an
// ArmTimer() slot, so resuming a coroutine never builds a std::function.
//
// The FIFO tie-break can be overridden with a SchedulePolicy (schedule.h):
// when a policy is installed, every instant with more than one ready event
// becomes a recorded decision point, which is what explore::Explorer uses to
// search the schedule space. With no policy installed the engine takes a
// fast path that is bit-for-bit identical to the historical FIFO order.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace sim {

class SchedulePolicy;

class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current virtual time.
  Time now() const { return now_; }

  // Total events dispatched so far (useful for progress accounting in tests).
  uint64_t events_processed() const { return events_processed_; }

  // Attaches (or detaches, with nullptr) a trace sink. While attached, the
  // engine emits virtual-time spans for actor lifetimes and sleeps, and
  // components reached through this engine (NIC stations, RFP channels) emit
  // their own service/state spans. The sink must outlive the engine or be
  // detached first.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace_sink() const { return trace_; }

  // Installs (or removes, with nullptr) a same-timestamp tie-break policy.
  // The policy must outlive the engine or be detached first; it is consulted
  // only at instants with >= 2 ready events, so Yield() ordering and every
  // other same-instant race is policy-controlled. Install before Run(): the
  // decision-point sequence is only a stable replay artifact if the whole
  // run used one policy.
  void set_schedule_policy(SchedulePolicy* policy) { policy_ = policy; }
  SchedulePolicy* schedule_policy() const { return policy_; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now()).
  // The clamp is a hard guarantee the schedule explorer relies on: an event
  // can never be queued in the past, so the ready set at each instant — and
  // therefore the decision-point sequence — is a function of prior decisions
  // only, making recorded traces replayable.
  void ScheduleAt(Time when, std::function<void()> fn);

  // Schedules `fn` to run `delay` nanoseconds from now.
  void ScheduleAfter(Time delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Resumes `handle` at absolute virtual time `when` (clamped to now()).
  void ResumeAt(Time when, std::coroutine_handle<> handle) {
    Push(when, handle.address(), kResume);
  }

  // A cancellable ResumeAt. ArmTimer queues a resumption of `handle` at
  // `when` (clamped to now()); CancelTimer before then turns the queued entry
  // into a no-op that runs nothing and leaves the clock where it is, so a
  // cancelled timer never moves now() or the end time of Run() (under a
  // schedule policy it still counts in its instant's ready set). A timer must
  // not be cancelled once it fired. Slots are recycled when their entry
  // leaves the queue, so arming allocates nothing once the engine has held
  // its peak number of pending timers.
  using Timer = std::coroutine_handle<>*;
  Timer ArmTimer(Time when, std::coroutine_handle<> handle);
  static void CancelTimer(Timer timer) { *timer = nullptr; }

  // Awaitable: suspends the current coroutine for `delay` virtual nanoseconds.
  auto Sleep(Time delay) {
    struct Awaiter {
      Engine* engine;
      Time delay;
      bool await_ready() const noexcept { return delay <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        if (engine->trace_ != nullptr) {
          engine->trace_->Span("actor", "sleep",
                               reinterpret_cast<uint64_t>(h.address()), engine->now_,
                               engine->now_ + delay);
        }
        engine->ResumeAt(engine->now_ + delay, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  // Awaitable: yields to any other events pending at the current instant.
  auto Yield() {
    struct Awaiter {
      Engine* engine;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine->ResumeAt(engine->now_, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // Launches a detached actor. The engine owns the coroutine frame and reaps
  // it when the actor finishes; exceptions escaping the actor are captured
  // and rethrown from Run()/RunFor()/RunUntil().
  void Spawn(Task<void> task);

  // Number of spawned actors that have not finished yet.
  int live_actors() const { return live_actors_; }

  // Runs until the event queue drains. Rethrows the first actor exception.
  void Run();

  // Runs until the event queue drains or virtual time would exceed `deadline`,
  // then advances the clock to `deadline`. A deadline before now() runs
  // nothing and leaves the clock where it is. Returns true if the queue
  // drained.
  bool RunUntil(Time deadline);

  // Convenience: RunUntil(now() + duration).
  bool RunFor(Time duration) { return RunUntil(now_ + duration); }

  // Internal: invoked by the Spawn wrapper when an actor finishes (with the
  // exception that escaped it, if any).
  void ActorDone(std::exception_ptr e);

 private:
  // One pending event. `seq` is the schedule sequence number shifted left
  // by two, with the low bits saying what `target` is (a Kind); ordering by
  // it is ordering by sequence number.
  struct Entry {
    Time when;
    uint64_t seq;
    void* target;
  };
  enum Kind : uint64_t {
    kResume = 0,    // a coroutine frame
    kCallback = 1,  // a std::function<void()> in callbacks_
    kTimer = 2,     // a coroutine handle in timers_ (null once cancelled)
  };
  static constexpr uint64_t kKindBits = 2;

  // FIFO of entries due at now(), in seq order. A power-of-two ring, so a
  // long same-instant burst reuses its storage.
  class Lane {
   public:
    bool empty() const { return size_ == 0; }
    void push_back(const Entry& e) {
      if (size_ == ring_.size()) {
        Grow();
      }
      ring_[(head_ + size_) & (ring_.size() - 1)] = e;
      ++size_;
    }
    Entry pop_front() {
      const Entry e = ring_[head_];
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      return e;
    }

   private:
    void Grow();

    std::vector<Entry> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  // Heap order: std::push_heap/pop_heap keep the greatest element on top,
  // so the entry that runs last compares least.
  static bool RunsLater(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  void Push(Time when, void* target, Kind kind) {
    const uint64_t seq = (next_seq_++ << kKindBits) | kind;
    if (when <= now_) {
      lane_.push_back(Entry{now_, seq, target});
    } else {
      PushHeap(Entry{when, seq, target});
    }
  }
  void PushHeap(const Entry& e);
  Entry PopHeap();
  // Removes the next entry in (when, seq) order. Requires a non-empty queue.
  Entry PopNext() {
    if (!heap_.empty() && (lane_.empty() || heap_.front().when <= now_)) {
      return PopHeap();
    }
    return lane_.pop_front();
  }
  bool QueueEmpty() const { return heap_.empty() && lane_.empty(); }
  // Time of the next entry. Requires a non-empty queue.
  Time NextTime() const { return lane_.empty() ? heap_.front().when : now_; }

  void DispatchOne();
  void DispatchOneWithPolicy();
  void Fire(const Entry& e);

  Time now_ = 0;
  TraceSink* trace_ = nullptr;
  SchedulePolicy* policy_ = nullptr;
  uint64_t next_actor_id_ = 1;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  int live_actors_ = 0;
  std::exception_ptr actor_failure_;
  std::vector<Entry> heap_;  // min-heap on (when, seq)
  Lane lane_;
  // ScheduleAt() callbacks; a deque, so queued entries' pointers stay valid.
  std::deque<std::function<void()>> callbacks_;
  std::vector<std::function<void()>*> free_callbacks_;  // empty slots in callbacks_
  // ArmTimer() slots, recycled the same way.
  std::deque<std::coroutine_handle<>> timers_;
  std::vector<std::coroutine_handle<>*> free_timers_;
  std::vector<Entry> ready_scratch_;  // policy path: same-instant ready set
};

}  // namespace sim

#endif  // SRC_SIM_ENGINE_H_
