// Completion queues.
//
// Completions are appended by the fabric when operations finish and drained
// by application actors, either non-blockingly (Poll) or by suspending until
// one arrives (Wait, WaitUntil, WaitForTick) — the coroutine analogue of
// busy-polling ibv_poll_cq. WaitUntil bounds the wait by a deadline, which
// lets a polling client skip the poll ticks that would find the queue empty;
// WaitForTick resumes an idle poll loop straight at the tick that finds the
// next completion.

#ifndef SRC_RDMA_CQ_H_
#define SRC_RDMA_CQ_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>

#include "src/check/checker.h"
#include "src/rdma/types.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace rdma {

class CompletionQueue {
 public:
  // Awaiter of WaitUntil. It lives in the waiting coroutine's frame and is
  // linked into the queue's FIFO of waiters while suspended; destroying the
  // frame unlinks it and cancels its deadline.
  class Arrival {
   public:
    Arrival(CompletionQueue* cq, sim::Time deadline) : cq_(cq), deadline_(deadline) {}
    Arrival(CompletionQueue* cq, sim::Time tick, sim::Time period)
        : cq_(cq), deadline_(kNoDeadline), tick_(tick), period_(period) {}
    Arrival(const Arrival&) = delete;
    Arrival& operator=(const Arrival&) = delete;
    ~Arrival() {
      if (linked_) {
        cq_->Unlink(this);
        if (timer_ != nullptr) {
          sim::Engine::CancelTimer(timer_);
        }
      }
    }

    bool await_ready() {
      arrived_ = !cq_->queue_.empty();
      return arrived_ || deadline_ <= cq_->engine_.now();
    }
    void await_suspend(std::coroutine_handle<> handle) {
      handle_ = handle;
      cq_->Link(this);
      if (deadline_ != kNoDeadline) {
        timer_ = cq_->engine_.ArmTimer(deadline_, handle);
      }
    }
    // True when a completion arrived, false at the deadline.
    bool await_resume() {
      if (linked_) {  // the deadline fired first
        cq_->Unlink(this);
      }
      return arrived_;
    }

   private:
    friend class CompletionQueue;

    CompletionQueue* cq_;
    sim::Time deadline_;
    sim::Time tick_ = 0;    // WaitForTick's grid; period_ == 0: resume at the push
    sim::Time period_ = 0;
    std::coroutine_handle<> handle_;
    sim::Engine::Timer timer_ = nullptr;
    Arrival* next_ = nullptr;
    Arrival* prev_ = nullptr;
    bool linked_ = false;
    bool arrived_ = false;
  };

  static constexpr sim::Time kNoDeadline = std::numeric_limits<sim::Time>::max();

  explicit CompletionQueue(sim::Engine& engine) : engine_(engine) {}

  // Waiters still suspended keep their deadline; it resumes them with
  // `false` and they no longer touch this queue.
  ~CompletionQueue() {
    for (Arrival* w = head_; w != nullptr; w = w->next_) {
      w->linked_ = false;
      w->cq_ = nullptr;
    }
  }

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  // Attached by the fabric when invariant checking is on (see src/check/).
  void set_checker(check::FabricChecker* checker) { checker_ = checker; }

  // Internal: appends a completion and wakes the longest-waiting waiter at
  // the current instant, behind the pushing event.
  void Push(const WorkCompletion& wc) {
    queue_.push_back(wc);
    ++total_;
    if (checker_ != nullptr) {
      checker_->OnCqPush(this, wc, queue_.size());
    }
    if (Arrival* w = head_) {
      Unlink(w);
      w->arrived_ = true;
      if (w->timer_ != nullptr) {
        sim::Engine::CancelTimer(w->timer_);
      }
      const sim::Time now = engine_.now();
      engine_.ResumeAt(w->period_ == 0 ? now
                                       : sim::TickAtOrAfter(w->tick_, w->period_,
                                                            std::max(now, w->tick_ + w->period_)),
                       w->handle_);
    }
  }

  // Non-blocking poll; std::nullopt when the queue is empty.
  std::optional<WorkCompletion> Poll() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    WorkCompletion wc = queue_.front();
    queue_.pop_front();
    return wc;
  }

  // Drains up to out.size() completions; returns how many were written.
  size_t PollBatch(std::span<WorkCompletion> out) {
    size_t n = 0;
    while (n < out.size() && !queue_.empty()) {
      out[n++] = queue_.front();
      queue_.pop_front();
    }
    return n;
  }

  // Suspends until a completion is available, then returns it.
  sim::Task<WorkCompletion> Wait() {
    while (true) {
      if (auto wc = Poll()) {
        co_return *wc;
      }
      co_await Arrival(this, kNoDeadline);
    }
  }

  // Awaitable: completes at once while a completion is queued; otherwise
  // suspends until the next Push or virtual time `deadline`, whichever comes
  // first. Yields true when a completion is available (the caller polls it),
  // false at the deadline. A deadline that a Push beats costs one no-op
  // engine event and no allocation (sim::Engine::ArmTimer).
  Arrival WaitUntil(sim::Time deadline) { return Arrival(this, deadline); }

  // Awaitable for a loop that polls this queue at tick + k·period and found
  // it empty at `tick`: completes at once while a completion is queued,
  // otherwise at the poll tick that first sees the next Push — the first
  // tick after `tick` at or after it — with one engine event however many
  // empty ticks it skips. Yields true.
  Arrival WaitForTick(sim::Time tick, sim::Time period) { return Arrival(this, tick, period); }

  size_t depth() const { return queue_.size(); }
  uint64_t total_completions() const { return total_; }

 private:
  void Link(Arrival* w) {
    w->linked_ = true;
    w->prev_ = tail_;
    w->next_ = nullptr;
    (tail_ != nullptr ? tail_->next_ : head_) = w;
    tail_ = w;
  }
  void Unlink(Arrival* w) {
    w->linked_ = false;
    (w->prev_ != nullptr ? w->prev_->next_ : head_) = w->next_;
    (w->next_ != nullptr ? w->next_->prev_ : tail_) = w->prev_;
  }

  sim::Engine& engine_;
  check::FabricChecker* checker_ = nullptr;
  std::deque<WorkCompletion> queue_;
  uint64_t total_ = 0;
  Arrival* head_ = nullptr;  // FIFO of suspended waiters
  Arrival* tail_ = nullptr;
};

}  // namespace rdma

#endif  // SRC_RDMA_CQ_H_
