// Free-list allocator for coroutine frames.
//
// Every Task call and every Engine::Spawn allocates a coroutine frame, and a
// simulated RDMA op runs several of them. Frames of one coroutine always have
// the same size, so recycling freed frames by size class turns nearly every
// frame allocation into a free-list pop. Sizes are rounded up to 64-byte
// granules; frames above kMaxPooled bytes go straight to the global
// allocator. Freed blocks are kept for reuse and returned to the global
// allocator only when the pool is destroyed, so a pool holds at most the peak
// number of simultaneously live frames of each class.
//
// Task promises (task.h) and Engine::Spawn's wrapper allocate through
// AllocateFrame/DeallocateFrame, which use one pool per thread. In
// AddressSanitizer builds they bypass the pool, so a use of a destroyed frame
// is still reported.

#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <new>

namespace sim::internal {

class FramePool {
 public:
  static constexpr size_t kGranule = 64;
  static constexpr size_t kClasses = 32;
  static constexpr size_t kMaxPooled = kGranule * kClasses;

  FramePool() = default;
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  void* Allocate(size_t size) {
    if (size == 0 || size > kMaxPooled) {
      return ::operator new(size);
    }
    const size_t cls = ClassOf(size);
    if (Block* b = free_[cls]) {
      free_[cls] = b->next;
      return b;
    }
    return ::operator new((cls + 1) * kGranule);
  }

  // `size` must be the size passed to the Allocate that returned `p`.
  void Deallocate(void* p, size_t size) noexcept {
    if (size == 0 || size > kMaxPooled) {
      ::operator delete(p, size);
      return;
    }
    const size_t cls = ClassOf(size);
    Block* b = ::new (p) Block{free_[cls]};
    free_[cls] = b;
  }

  // Blocks waiting for reuse in the size class of `size` (0 for sizes the
  // pool passes through).
  size_t cached(size_t size) const;

 private:
  struct Block {
    Block* next;
  };

  static size_t ClassOf(size_t size) { return (size - 1) / kGranule; }

  Block* free_[kClasses] = {};
};

// Allocation entry points for coroutine promises (this thread's pool).
void* AllocateFrame(size_t size);
void DeallocateFrame(void* p, size_t size) noexcept;

}  // namespace sim::internal

#endif  // SRC_SIM_FRAME_POOL_H_
