#include "src/sim/frame_pool.h"

namespace sim::internal {

FramePool::~FramePool() {
  for (size_t cls = 0; cls < kClasses; ++cls) {
    while (Block* b = free_[cls]) {
      free_[cls] = b->next;
      ::operator delete(b, (cls + 1) * kGranule);
    }
  }
}

size_t FramePool::cached(size_t size) const {
  if (size == 0 || size > kMaxPooled) {
    return 0;
  }
  size_t n = 0;
  for (const Block* b = free_[ClassOf(size)]; b != nullptr; b = b->next) {
    ++n;
  }
  return n;
}

#if defined(__SANITIZE_ADDRESS__)

void* AllocateFrame(size_t size) { return ::operator new(size); }
void DeallocateFrame(void* p, size_t size) noexcept { ::operator delete(p, size); }

#else

namespace {
thread_local FramePool frame_pool;
}  // namespace

void* AllocateFrame(size_t size) { return frame_pool.Allocate(size); }
void DeallocateFrame(void* p, size_t size) noexcept { frame_pool.Deallocate(p, size); }

#endif

}  // namespace sim::internal
