#include "src/sim/frame_pool.h"

#include <gtest/gtest.h>

namespace sim::internal {
namespace {

TEST(FramePoolTest, ReusesBlocksWithinASizeClass) {
  FramePool pool;
  void* p = pool.Allocate(100);
  EXPECT_EQ(pool.cached(100), 0u);
  pool.Deallocate(p, 100);
  EXPECT_EQ(pool.cached(100), 1u);
  // 65..128 bytes share the 128-byte class.
  EXPECT_EQ(pool.cached(65), 1u);
  EXPECT_EQ(pool.cached(128), 1u);
  EXPECT_EQ(pool.cached(64), 0u);

  void* q = pool.Allocate(128);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.cached(100), 0u);
  pool.Deallocate(q, 128);
}

TEST(FramePoolTest, KeepsSizeClassesApart) {
  FramePool pool;
  void* small = pool.Allocate(40);
  pool.Deallocate(small, 40);
  // A 200-byte frame cannot take the cached 64-byte block.
  void* big = pool.Allocate(200);
  EXPECT_NE(big, small);
  EXPECT_EQ(pool.cached(40), 1u);
  pool.Deallocate(big, 200);
  EXPECT_EQ(pool.cached(200), 1u);
}

TEST(FramePoolTest, FreeListIsLastInFirstOut) {
  FramePool pool;
  void* a = pool.Allocate(300);
  void* b = pool.Allocate(300);
  pool.Deallocate(a, 300);
  pool.Deallocate(b, 300);
  EXPECT_EQ(pool.cached(300), 2u);
  EXPECT_EQ(pool.Allocate(300), b);
  EXPECT_EQ(pool.Allocate(300), a);
  pool.Deallocate(a, 300);
  pool.Deallocate(b, 300);
}

TEST(FramePoolTest, PassesLargeFramesThrough) {
  FramePool pool;
  constexpr size_t kLarge = FramePool::kMaxPooled + 1;
  void* p = pool.Allocate(kLarge);
  ASSERT_NE(p, nullptr);
  pool.Deallocate(p, kLarge);
  EXPECT_EQ(pool.cached(kLarge), 0u);

  // The largest pooled size is still cached.
  void* q = pool.Allocate(FramePool::kMaxPooled);
  pool.Deallocate(q, FramePool::kMaxPooled);
  EXPECT_EQ(pool.cached(FramePool::kMaxPooled), 1u);
}

}  // namespace
}  // namespace sim::internal
