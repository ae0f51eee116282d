#include "src/rdma/memory.h"

#include <cstring>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace rdma {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Fabric fabric_{engine_};
};

TEST_F(MemoryTest, RegistrationAssignsUniqueKeys) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* a = node.RegisterMemory(1024, kAccessRemoteRead);
  MemoryRegion* b = node.RegisterMemory(1024, kAccessRemoteRead);
  EXPECT_NE(a->remote_key().rkey, b->remote_key().rkey);
  EXPECT_EQ(fabric_.FindRemote(a->remote_key()), a);
  EXPECT_EQ(fabric_.FindRemote(b->remote_key()), b);
}

TEST_F(MemoryTest, UnknownRkeyResolvesToNull) {
  EXPECT_EQ(fabric_.FindRemote(RemoteKey{9999}), nullptr);
}

TEST_F(MemoryTest, AccessFlagsReported) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* ro = node.RegisterMemory(64, kAccessRemoteRead);
  MemoryRegion* rw = node.RegisterMemory(64, kAccessRemoteRead | kAccessRemoteWrite);
  MemoryRegion* local = node.RegisterMemory(64, kAccessLocal);
  EXPECT_TRUE(ro->AllowsRemoteRead());
  EXPECT_FALSE(ro->AllowsRemoteWrite());
  EXPECT_TRUE(rw->AllowsRemoteWrite());
  EXPECT_FALSE(local->AllowsRemoteRead());
  EXPECT_FALSE(local->AllowsRemoteWrite());
}

TEST_F(MemoryTest, InBoundsChecks) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* mr = node.RegisterMemory(100, kAccessLocal);
  EXPECT_TRUE(mr->InBounds(0, 100));
  EXPECT_TRUE(mr->InBounds(100, 0));
  EXPECT_TRUE(mr->InBounds(50, 50));
  EXPECT_FALSE(mr->InBounds(50, 51));
  EXPECT_FALSE(mr->InBounds(101, 0));
}

TEST_F(MemoryTest, TypedLoadStoreRoundTrips) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* mr = node.RegisterMemory(64, kAccessLocal);
  mr->Store<uint64_t>(8, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(mr->Load<uint64_t>(8), 0xdeadbeefcafef00dULL);
  mr->Store<uint16_t>(0, 42);
  EXPECT_EQ(mr->Load<uint16_t>(0), 42);
}

TEST_F(MemoryTest, ByteCopiesRoundTrip) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* mr = node.RegisterMemory(32, kAccessLocal);
  const char msg[] = "remote fetching paradigm";
  mr->WriteBytes(4, std::as_bytes(std::span(msg, sizeof(msg))));
  char out[sizeof(msg)] = {};
  mr->ReadBytes(4, std::as_writable_bytes(std::span(out, sizeof(out))));
  EXPECT_STREQ(out, msg);
}

// Remote-write watches: a write raises exactly the flags of the watches it
// overlaps (half-open ranges, so a write ending at a watch's first byte or
// starting at its end misses it); local stores raise nothing; overlapping
// watches are rejected; an unwatched range stops raising.
TEST_F(MemoryTest, RemoteWriteWatchesRaiseOnlyOverlappingFlags) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* mr = node.RegisterMemory(256, kAccessLocal);
  uint8_t a = 0;
  uint8_t b = 0;
  uint8_t c = 0;
  mr->Watch(64, 32, &b);  // [64, 96)
  mr->Watch(0, 32, &a);   // [0, 32)
  mr->Watch(96, 32, &c);  // [96, 128), adjacent to b
  EXPECT_THROW(mr->Watch(120, 16, &a), std::invalid_argument);
  EXPECT_THROW(mr->Watch(40, 30, &a), std::invalid_argument);

  mr->NoteRemoteWrite(32, 32);  // [32, 64): the gap between a and b
  EXPECT_EQ(a + b + c, 0);
  mr->NoteRemoteWrite(31, 1);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b + c, 0);
  a = 0;
  mr->NoteRemoteWrite(95, 2);  // straddles b and c
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 1);
  b = c = 0;
  mr->NoteRemoteWrite(0, 256);
  EXPECT_EQ(a + b + c, 3);
  a = b = c = 0;
  mr->NoteRemoteWrite(128, 64);  // past the last watch
  mr->NoteRemoteWrite(64, 0);    // empty
  mr->Store<uint64_t>(64, 1);    // local store
  EXPECT_EQ(a + b + c, 0);

  mr->Unwatch(64);
  mr->NoteRemoteWrite(0, 256);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(c, 1);
  mr->Watch(64, 32, &b);  // the freed range can be watched again
  mr->NoteRemoteWrite(70, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(MemoryTest, RegionsZeroInitialized) {
  Node& node = fabric_.AddNode("n0");
  MemoryRegion* mr = node.RegisterMemory(256, kAccessLocal);
  for (std::byte b : mr->bytes()) {
    EXPECT_EQ(b, std::byte{0});
  }
}

}  // namespace
}  // namespace rdma
