// Coroutine task type for simulator actors.
//
// A Task<T> is a lazily-started coroutine that produces a value of type T.
// Tasks compose with `co_await`: awaiting a task starts it and suspends the
// awaiter until the task completes, at which point control transfers back
// (symmetric transfer, no stack growth). Detached "actors" — e.g. a client
// thread loop — are launched with Engine::Spawn(), which owns the frame and
// reaps it on completion.
//
// Exceptions thrown inside a task propagate to the awaiter; exceptions that
// escape a detached actor are captured by the Engine and rethrown from
// Engine::Run(), so tests fail loudly instead of deadlocking.
//
// Task frames are allocated from a per-thread FramePool (frame_pool.h).

#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "src/sim/frame_pool.h"

namespace sim {

template <typename T>
class Task;

namespace internal {

class PromiseBase {
 public:
  static void* operator new(size_t size) { return AllocateFrame(size); }
  static void operator delete(void* p, size_t size) noexcept { DeallocateFrame(p, size); }

  // Resumes whoever co_awaited this task once the task's body finishes.
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
      auto& promise = h.promise();
      if (promise.continuation_) {
        return promise.continuation_;
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception_ = std::current_exception(); }

  void set_continuation(std::coroutine_handle<> cont) noexcept { continuation_ = cont; }

  void RethrowIfFailed() const {
    if (exception_) {
      std::rethrow_exception(exception_);
    }
  }

 private:
  std::coroutine_handle<> continuation_;
  std::exception_ptr exception_;
};

template <typename T>
class Promise : public PromiseBase {
 public:
  Task<T> get_return_object() noexcept;

  template <typename U>
  void return_value(U&& value) {
    value_ = std::forward<U>(value);
  }

  T&& TakeValue() {
    RethrowIfFailed();
    return std::move(value_);
  }

 private:
  T value_{};
};

template <>
class Promise<void> : public PromiseBase {
 public:
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void TakeValue() { RethrowIfFailed(); }
};

}  // namespace internal

// Lazily-started coroutine producing T. Move-only; owns the coroutine frame.
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  // Awaiting a task starts it (symmetric transfer into the task body) and
  // resumes the awaiter when the body completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }

      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().set_continuation(cont);
        return handle;
      }

      T await_resume() { return handle.promise().TakeValue(); }
    };
    return Awaiter{handle_};
  }

  // Releases ownership of the frame (used by Engine::Spawn).
  Handle Release() { return std::exchange(handle_, nullptr); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_;
};

namespace internal {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace internal

}  // namespace sim

#endif  // SRC_SIM_TASK_H_
