#include "src/sim/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/sim/frame_pool.h"
#include "src/sim/schedule.h"

namespace sim {

namespace {

// Fire-and-forget wrapper coroutine used by Engine::Spawn. It starts eagerly,
// runs the wrapped task to completion, and self-destructs (final_suspend is
// suspend_never), so the engine never has to track frames explicitly.
struct Detached {
  struct promise_type {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    // The wrapper body catches everything; reaching here is a logic error.
    void unhandled_exception() noexcept { std::terminate(); }

    static void* operator new(size_t size) { return internal::AllocateFrame(size); }
    static void operator delete(void* p, size_t size) noexcept {
      internal::DeallocateFrame(p, size);
    }
  };
};

Detached RunDetached(Engine* engine, Task<void> task, uint64_t actor_id, Time spawned_at) {
  std::exception_ptr failure;
  try {
    co_await std::move(task);
  } catch (...) {
    failure = std::current_exception();
  }
  if (TraceSink* trace = engine->trace_sink()) {
    trace->Span("actor", "actor-" + std::to_string(actor_id), actor_id, spawned_at,
                engine->now());
  }
  engine->ActorDone(failure);
}

}  // namespace

void Engine::Lane::Grow() {
  std::vector<Entry> bigger(ring_.empty() ? 64 : ring_.size() * 2);
  for (size_t i = 0; i < size_; ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void Engine::PushHeap(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), RunsLater);
}

Engine::Entry Engine::PopHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), RunsLater);
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

void Engine::ScheduleAt(Time when, std::function<void()> fn) {
  std::function<void()>* slot;
  if (free_callbacks_.empty()) {
    slot = &callbacks_.emplace_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    *slot = std::move(fn);
  }
  Push(when, slot, kCallback);
}

Engine::Timer Engine::ArmTimer(Time when, std::coroutine_handle<> handle) {
  Timer slot;
  if (free_timers_.empty()) {
    slot = &timers_.emplace_back(handle);
  } else {
    slot = free_timers_.back();
    free_timers_.pop_back();
    *slot = handle;
  }
  Push(when, slot, kTimer);
  return slot;
}

void Engine::Spawn(Task<void> task) {
  ++live_actors_;
  RunDetached(this, std::move(task), next_actor_id_++, now_);
}

void Engine::ActorDone(std::exception_ptr e) {
  --live_actors_;
  if (e && !actor_failure_) {
    actor_failure_ = e;
  }
}

void Engine::Fire(const Entry& e) {
  ++events_processed_;
  const uint64_t kind = e.seq & ((uint64_t{1} << kKindBits) - 1);
  if (kind == kResume) {
    now_ = e.when;
    std::coroutine_handle<>::from_address(e.target).resume();
    return;
  }
  if (kind == kTimer) {
    auto* slot = static_cast<std::coroutine_handle<>*>(e.target);
    const std::coroutine_handle<> handle = std::exchange(*slot, nullptr);
    free_timers_.push_back(slot);
    if (handle) {
      now_ = e.when;
      handle.resume();
    }
    return;
  }
  // Move the callback out and free its slot before running it, so the slot
  // is reusable by whatever the callback schedules.
  now_ = e.when;
  auto* slot = static_cast<std::function<void()>*>(e.target);
  std::function<void()> fn = std::move(*slot);
  *slot = nullptr;
  free_callbacks_.push_back(slot);
  fn();
}

void Engine::DispatchOne() {
  if (policy_ != nullptr) {
    DispatchOneWithPolicy();
    return;
  }
  Fire(PopNext());
}

void Engine::DispatchOneWithPolicy() {
  // Gather the full ready set for the next instant in seq order: the heap
  // entries due then (heap order yields them in ascending seq), followed by
  // the lane, which is non-empty only when that instant is now() and whose
  // entries were all queued after the heap's. Choice 0 therefore always
  // means "what FIFO would do".
  const Time instant = NextTime();
  ready_scratch_.clear();
  while (!heap_.empty() && heap_.front().when == instant) {
    ready_scratch_.push_back(PopHeap());
  }
  while (!lane_.empty()) {
    ready_scratch_.push_back(lane_.pop_front());
  }
  size_t pick = 0;
  if (ready_scratch_.size() > 1) {
    pick = policy_->ChooseAndRecord(ready_scratch_.size());
  }
  const Entry chosen = ready_scratch_[pick];
  // Unchosen events go back, with their original seq and in seq order, to
  // the lane (now empty, and due at `instant`, which becomes now()): the
  // next decision point sees a ready set that differs from this one only by
  // the removal of `chosen`, plus whatever `chosen` itself schedules at this
  // instant, which queues behind them.
  now_ = instant;
  for (size_t i = 0; i < ready_scratch_.size(); ++i) {
    if (i != pick) {
      lane_.push_back(ready_scratch_[i]);
    }
  }
  ready_scratch_.clear();
  Fire(chosen);
}

void Engine::Run() {
  while (!QueueEmpty() && !actor_failure_) {
    DispatchOne();
  }
  if (actor_failure_) {
    std::exception_ptr e = std::exchange(actor_failure_, nullptr);
    std::rethrow_exception(e);
  }
}

bool Engine::RunUntil(Time deadline) {
  bool drained = true;
  while (!QueueEmpty() && !actor_failure_) {
    if (NextTime() > deadline) {
      drained = false;
      break;
    }
    DispatchOne();
  }
  if (actor_failure_) {
    std::exception_ptr e = std::exchange(actor_failure_, nullptr);
    std::rethrow_exception(e);
  }
  now_ = std::max(now_, deadline);
  return drained;
}

}  // namespace sim
