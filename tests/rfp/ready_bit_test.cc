// The request-ring ready bit (Channel::TakeRequestReady): remote bytes that
// land on a channel's request ring — a request WRITE, the one-byte
// mode-switch WRITE, a corruption fault — raise it; WRITEs to the channel's
// response ring or to a neighbouring channel's span of the same pool MR do
// not.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/wire.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

class ReadyBitTest : public ::testing::Test {
 protected:
  ReadyBitTest()
      : server_(fabric_.AddNode("server")),
        client_(fabric_.AddNode("client")),
        a_(fabric_, client_, server_, RfpOptions{}),
        b_(fabric_, client_, server_, RfpOptions{}) {
    // Both channels' server rings are spans of one pool MR.
    EXPECT_EQ(a_.server_rkey(), b_.server_rkey());
    a_.TakeRequestReady();
    b_.TakeRequestReady();
  }

  // One raw RDMA WRITE of `len` bytes from the client into (rkey, offset).
  void RawWrite(uint32_t rkey, size_t offset, uint32_t len) {
    rdma::MemoryRegion* src = client_.RegisterMemory(len, rdma::kAccessLocal);
    rdma::QueuePair* qp = fabric_.ConnectRc(client_, server_).first;
    engine_.Spawn([](rdma::QueuePair* q, rdma::MemoryRegion* m, uint32_t k, size_t off,
                     uint32_t n) -> sim::Task<void> {
      EXPECT_TRUE((co_await q->Write(*m, 0, rdma::RemoteKey{k}, off, n)).ok());
    }(qp, src, rkey, offset, len));
    engine_.Run();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& server_;
  rdma::Node& client_;
  Channel a_;
  Channel b_;
};

// A request WRITE raises its own channel's bit and not the bit of the
// neighbouring span in the same MR; taking the bit clears it.
TEST_F(ReadyBitTest, RequestWriteRaisesOnlyItsChannel) {
  EXPECT_FALSE(a_.request_ready());
  engine_.Spawn([](Channel* ch) -> sim::Task<void> {
    co_await ch->ClientSend(AsBytes("request"));
  }(&a_));
  engine_.RunUntil(sim::Micros(5));
  EXPECT_EQ(a_.PendingRequests(), 1);
  EXPECT_TRUE(a_.TakeRequestReady());
  EXPECT_FALSE(a_.request_ready());
  EXPECT_FALSE(b_.request_ready());
}

// The paradigm switch's one-byte WRITE of the mode field raises the bit, so
// a sweep that skips untouched channels still sees the switch and resends a
// response it stored for a fetch.
TEST_F(ReadyBitTest, ModeSwitchWriteRaisesTheBit) {
  RfpOptions options;
  options.retry_threshold = 1;
  options.slow_calls_before_switch = 1;
  Channel ch(fabric_, client_, server_, options);
  std::string got;
  engine_.Spawn([](Channel* c, std::string* out) -> sim::Task<void> {
    co_await c->ClientSend(AsBytes("slow"));
    std::vector<std::byte> resp(64);
    const size_t n = co_await c->ClientRecv(resp);
    *out = std::string(reinterpret_cast<const char*>(resp.data()), n);
  }(&ch, &got));
  // The request lands; the server takes it and the bit, and stays silent
  // until the client's failed fetch makes it switch to server-reply.
  engine_.RunUntil(sim::Micros(3));
  std::vector<std::byte> req(64);
  size_t size = 0;
  ASSERT_TRUE(ch.TryServerRecv(req, &size));
  EXPECT_TRUE(ch.TakeRequestReady());
  EXPECT_EQ(ch.server_visible_mode(), Mode::kRemoteFetch);
  engine_.RunUntil(sim::Micros(40));
  ASSERT_EQ(ch.server_visible_mode(), Mode::kServerReply);
  EXPECT_EQ(ch.stats().request_writes, 1u);  // no request WRITE since
  EXPECT_TRUE(ch.request_ready());
  // Serve it so the client's call completes.
  engine_.Spawn([](Channel* c, std::vector<std::byte>* r, size_t n) -> sim::Task<void> {
    co_await c->ServerSend(std::span<const std::byte>(r->data(), n));
  }(&ch, &req, size));
  engine_.RunUntil(sim::Micros(80));
  EXPECT_EQ(got, "slow");
}

// A corruption fault on the request ring may forge a fresh-looking header:
// it raises the bit. One on the response ring does not.
TEST_F(ReadyBitTest, CorruptionOfTheRequestRingRaisesTheBit) {
  fault::FaultInjector injector(fabric_);
  fault::FaultPlan plan;
  plan.CorruptRegion(sim::Micros(1), a_.server_rkey(), a_.response_offset(), 8, 1);
  plan.CorruptRegion(sim::Micros(2), a_.server_rkey(), a_.request_offset(), 6, 2);
  injector.Arm(plan);
  engine_.RunUntil(sim::Nanos(1500));
  EXPECT_FALSE(a_.request_ready());
  engine_.RunUntil(sim::Micros(3));
  EXPECT_TRUE(a_.request_ready());
  EXPECT_FALSE(b_.request_ready());
}

// WRITEs around the ring's edges: the response ring and the neighbouring
// span leave the bit down; the ring's last byte raises it.
TEST_F(ReadyBitTest, OnlyWritesIntoTheRequestRingRaiseTheBit) {
  const uint32_t rkey = a_.server_rkey();
  RawWrite(rkey, a_.response_offset(), 16);
  EXPECT_FALSE(a_.request_ready());
  RawWrite(rkey, b_.request_offset(), 16);
  EXPECT_FALSE(a_.request_ready());
  EXPECT_TRUE(b_.request_ready());
  RawWrite(rkey, a_.response_offset() - 1, 1);
  EXPECT_TRUE(a_.request_ready());
}

// A closed channel's span returns to the pool unwatched: writes into it no
// longer touch the dead channel, and a new channel on the recycled span
// watches it afresh.
TEST_F(ReadyBitTest, DestroyedChannelUnwatchesItsRing) {
  const uint32_t rkey = a_.server_rkey();
  size_t offset = 0;
  {
    Channel temp(fabric_, client_, server_, RfpOptions{});
    offset = temp.request_offset();
  }
  RawWrite(rkey, offset, 16);  // nobody watches it: nothing to raise
  Channel reuse(fabric_, client_, server_, RfpOptions{});
  ASSERT_EQ(reuse.request_offset(), offset);
  reuse.TakeRequestReady();
  RawWrite(rkey, offset, 16);
  EXPECT_TRUE(reuse.request_ready());
  EXPECT_FALSE(a_.request_ready());
  EXPECT_FALSE(b_.request_ready());
}

}  // namespace
}  // namespace rfp
