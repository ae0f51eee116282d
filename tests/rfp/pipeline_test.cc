// Pipelined multi-slot channel tests (docs/pipelining.md): slot-ring round
// trips, doorbell-batching stats, client-CPU booking of an implicit flush, a
// window=1 scenario pinned to the schedule of the original single-slot
// implementation, per-call CallOptions knobs, window-full and stale-handle
// errors, the Table-2 legacy API riding slot 0 of a windowed channel,
// coalesced request WRITEs and concurrent posting batches, and the pipelined
// Jakiro MultiGet.

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/rdma/memory.h"
#include "src/rfp/channel.h"
#include "src/rfp/legacy_api.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// Polls the channel and echoes until `count` requests are served. Works for
// any window: TryServerRecv hands out one ready slot per call and ServerSend
// answers the slot it came from.
sim::Task<void> EchoServer(sim::Engine& eng, Channel* ch, int count) {
  std::vector<std::byte> buf(16384);
  int served = 0;
  while (served < count) {
    if (ch->NeedsReplyResend()) {
      co_await ch->MaybeResendAfterSwitch();
    }
    size_t n = 0;
    if (ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(sim::Nanos(300));
      co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
      ++served;
    } else {
      co_await eng.Sleep(sim::Nanos(200));
    }
  }
}

class PipelineTest : public ::testing::Test {
 protected:
  Channel* MakeChannel(const RfpOptions& options) {
    channels_.push_back(
        std::make_unique<Channel>(fabric_, *client_node_, *server_node_, options));
    return channels_.back().get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  std::vector<std::unique_ptr<Channel>> channels_;
};

TEST_F(PipelineTest, Window4EchoInOrder) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 4));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("slot-" + std::to_string(i))));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "slot-" + std::to_string(i));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
  // The four staged requests went out in one doorbell batch.
  EXPECT_GE(ch->stats().doorbell_batches, 1u);
  EXPECT_GT(ch->stats().batch_occupancy.mean(), 1.0);
  EXPECT_EQ(ch->stats().submit_window.count(), 4u);
}

TEST_F(PipelineTest, Window4AwaitOutOfOrder) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 4));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("ooo-" + std::to_string(i))));
    }
    std::vector<std::byte> out(16384);
    for (int i = 3; i >= 0; --i) {  // awaits need not match submit order
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "ooo-" + std::to_string(i));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
}

// An implicit flush inside AwaitCall books its posting interval as client
// CPU once, exactly like an explicit FlushCalls before the await.
TEST_F(PipelineTest, ImplicitFlushBooksClientCpuOnce) {
  const auto run = [](bool explicit_flush) {
    sim::Engine engine;
    rdma::Fabric fabric(engine);
    rdma::Node& client = fabric.AddNode("client");
    rdma::Node& server = fabric.AddNode("server");
    RfpOptions options;
    options.window = 4;
    Channel ch(fabric, client, server, options);
    engine.Spawn(EchoServer(engine, &ch, 2));
    engine.Spawn([](Channel* c, bool flush) -> sim::Task<void> {
      std::vector<std::byte> out(16384);
      const Channel::CallHandle a = co_await c->SubmitCall(AsBytes("first"));
      const Channel::CallHandle b = co_await c->SubmitCall(AsBytes("second"));
      if (flush) {
        co_await c->FlushCalls();
      }
      EXPECT_EQ(co_await c->AwaitCall(a, out), 5u);
      EXPECT_EQ(co_await c->AwaitCall(b, out), 6u);
    }(&ch, explicit_flush));
    engine.Run();
    return ch.client_busy().busy();
  };
  const sim::Time implicit = run(false);
  EXPECT_GT(implicit, 0);
  EXPECT_EQ(implicit, run(true));
}

TEST_F(PipelineTest, SlotsAreReusedAcrossGenerations) {
  RfpOptions options;
  options.window = 2;
  Channel* ch = MakeChannel(options);
  static constexpr int kRounds = 8;
  engine_.Spawn(EchoServer(engine_, ch, kRounds * 2));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int r = 0; r < kRounds; ++r) {
      const Channel::CallHandle a =
          co_await c->SubmitCall(AsBytes("a" + std::to_string(r)));
      const Channel::CallHandle b =
          co_await c->SubmitCall(AsBytes("b" + std::to_string(r)));
      size_t got = co_await c->AwaitCall(a, out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "a" + std::to_string(r));
      got = co_await c->AwaitCall(b, out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "b" + std::to_string(r));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, static_cast<uint64_t>(kRounds * 2));
  // retries_per_call records one sample per issued call: Table-3 semantics
  // (RoundTripsPerCall divides by stats.calls) survive pipelining.
  EXPECT_EQ(ch->stats().retries_per_call.count(), static_cast<uint64_t>(kRounds * 2));
}

// One window=1 scenario pinned to constants recorded from the original
// single-slot implementation: engine end time and every Stats field. It
// covers fetch retries, the switch to server-reply and back, a BUSY
// re-issue, a zero-copy response and a QP-error reconnect, on both the
// Table-2 surface (ClientSend/ClientRecv) and the async one.
TEST_F(PipelineTest, Window1ScenarioMatchesRecordedSchedule) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client = fabric.AddNode("client");
  rdma::Node& server = fabric.AddNode("server");
  Channel ch(fabric, client, server, RfpOptions{});
  rdma::MemoryRegion* entry =
      server.RegisterMemory(64, rdma::kAccessRemoteRead);
  const std::string value = "zero-copy-value";
  entry->WriteBytes(8, AsBytes(value));
  bool done = false;

  // Request ops: 'f' fast, 's' slow (15 us handler), 'b' shed once with
  // BUSY(admission) then served, 'z' answered zero-copy from `entry`.
  engine.Spawn([](sim::Engine& eng, Channel* c, rdma::MemoryRegion* mr, uint32_t value_len,
                  const bool* stop) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    bool shed = false;
    while (!*stop) {
      if (c->NeedsReplyResend()) {
        co_await c->MaybeResendAfterSwitch();
      }
      size_t n = 0;
      if (!c->TryServerRecv(buf, &n)) {
        co_await eng.Sleep(sim::Nanos(200));
        continue;
      }
      const char op = static_cast<char>(buf[0]);
      co_await eng.Sleep(op == 's' ? sim::Micros(15) : sim::Nanos(300));
      if (op == 'b' && !shed) {
        shed = true;
        co_await c->ServerSendBusy(BusyReason::kAdmission, 2);
      } else if (op == 'z') {
        ZeroCopyRef ref;
        ref.rkey = mr->remote_key().rkey;
        ref.offset = 8;
        ref.len = value_len;
        co_await c->ServerSendZeroCopy(std::span<const std::byte>(buf.data(), n), ref);
      } else {
        co_await c->ServerSend(std::span<const std::byte>(buf.data(), n));
      }
    }
  }(engine, &ch, entry, static_cast<uint32_t>(value.size()), &done));

  engine.Spawn([](Channel* c, std::string zero_copy_value, bool* stop) -> sim::Task<void> {
    const std::string script = "ffsssffffbzDff";
    std::vector<std::byte> out(16384);
    int i = 0;
    for (const char op : script) {
      if (op == 'D') {
        c->Detach();  // the next post fails with a QP error and reconnects
        continue;
      }
      const std::string msg = std::string(1, op) + "-call-" + std::to_string(i);
      size_t got = 0;
      if (i++ % 2 == 0) {
        co_await c->ClientSend(AsBytes(msg));
        got = co_await c->ClientRecv(out);
      } else {
        const Channel::CallHandle h = co_await c->SubmitCall(AsBytes(msg));
        got = co_await c->AwaitCall(h, out);
      }
      const std::string want = op == 'z' ? msg + zero_copy_value : msg;
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got), want);
    }
    *stop = true;
  }(&ch, value, &done));
  engine.Run();

  // Recorded from the original single-slot implementation.
  EXPECT_EQ(engine.now(), 104046);
  const Channel::Stats& st = ch.stats();
  EXPECT_EQ(st.calls, 13u);
  EXPECT_EQ(st.request_writes, 13u);
  EXPECT_EQ(st.fetch_reads, 26u);
  EXPECT_EQ(st.failed_fetches, 16u);
  EXPECT_EQ(st.reply_pushes, 4u);
  EXPECT_EQ(st.switches_to_reply, 1u);
  EXPECT_EQ(st.switches_to_fetch, 1u);
  EXPECT_EQ(st.reconnects, 1u);
  EXPECT_EQ(st.reissues, 1u);
  EXPECT_EQ(st.recovery_request_writes, 1u);
  EXPECT_EQ(st.recovery_fetch_reads, 1u);
  EXPECT_EQ(st.busy_responses, 1u);
  EXPECT_EQ(st.shed_admission, 1u);
  EXPECT_EQ(st.zero_copy_sends, 1u);
  EXPECT_EQ(st.zero_copy_fetches, 1u);
  EXPECT_EQ(st.zero_copy_bytes, 15u);
  EXPECT_EQ(st.retries_per_call.count(), 10u);
  EXPECT_EQ(st.retries_per_call.max(), 11);
  EXPECT_DOUBLE_EQ(st.retries_per_call.mean(), 1.6);
  EXPECT_EQ(ch.client_busy().busy(), 74738);
  // Every other counter is zero; in particular a window=1 channel never
  // books pipelining counters.
  EXPECT_EQ(st.extra_fetches + st.corrupt_fetches + st.fetch_timeouts + st.shed_deadline +
                st.breaker_opens + st.redirects + st.shed_redirect + st.doorbell_batches +
                st.batched_ops + st.coalesced_fetches + st.coalesced_slots +
                st.coalesced_writes + st.coalesced_write_slots + st.zero_copy_fallbacks,
            0u);
  EXPECT_EQ(st.submit_window.count(), 0u);
  EXPECT_EQ(st.batch_occupancy.count(), 0u);
}

TEST_F(PipelineTest, PerCallFetchSizeOverrideSkipsRemainderFetch) {
  RfpOptions options;
  options.window = 4;
  options.fetch_size = 64;  // deliberately smaller than the echoed payload
  Channel* ch = MakeChannel(options);
  const std::string big(1000, 'z');
  engine_.Spawn(EchoServer(engine_, ch, 2));
  engine_.Spawn([](Channel* c, const std::string* msg) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    // Default fetch size undershoots: the payload needs a remainder fetch.
    Channel::CallHandle h = co_await c->SubmitCall(AsBytes(*msg));
    (void)co_await c->AwaitCall(h, out);
    EXPECT_EQ(c->stats().extra_fetches, 1u);
    // The per-call override covers header + payload in the first READ.
    CallOptions opts;
    opts.fetch_size = 4096;
    h = co_await c->SubmitCall(AsBytes(*msg), opts);
    (void)co_await c->AwaitCall(h, out);
    EXPECT_EQ(c->stats().extra_fetches, 1u);  // unchanged
  }(ch, &big));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 2u);
}

TEST_F(PipelineTest, SubmitBeyondWindowThrows) {
  RfpOptions options;
  options.window = 2;
  Channel* ch = MakeChannel(options);
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    (void)co_await c->SubmitCall(AsBytes("one"));
    (void)co_await c->SubmitCall(AsBytes("two"));
    bool threw = false;
    try {
      (void)co_await c->SubmitCall(AsBytes("three"));
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(ch));
  engine_.Run();
}

TEST_F(PipelineTest, StaleHandleThrows) {
  RfpOptions options;
  options.window = 2;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 1));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    const Channel::CallHandle h = co_await c->SubmitCall(AsBytes("once"));
    std::vector<std::byte> out(16384);
    (void)co_await c->AwaitCall(h, out);
    bool threw = false;
    try {
      (void)co_await c->AwaitCall(h, out);  // slot already freed
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(ch));
  engine_.Run();
}

// Table 2's Endpoint wrappers drive ClientSend/ClientRecv, which are
// SubmitCall + FlushCalls and AwaitCall: sequential legacy calls ride slot 0
// of a windowed channel, so legacy code keeps working on a pipelined channel
// with no recompilation of its call sites.
TEST_F(PipelineTest, LegacyEndpointRidesSlotZeroOfWindowedChannel) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 3));
  engine_.Spawn([](rdma::Node* node, Channel* c) -> sim::Task<void> {
    Endpoint ep(*node);
    ep.Bind(0, c);
    BufferPool::Buffer buf = malloc_buf(ep, 4096);
    for (int i = 0; i < 3; ++i) {
      const std::string msg = "legacy-" + std::to_string(i);
      std::memcpy(buf.bytes.data(), msg.data(), msg.size());
      co_await client_send(ep, 0, buf, msg.size());
      const size_t got = co_await client_recv(ep, 0, buf);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf.bytes.data()), got), msg);
    }
    free_buf(ep, std::move(buf));
  }(client_node_, ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 3u);
  // Slot-0 sequential calls never stage more than one request: every WRITE
  // and fetch READ is a one-WR doorbell batch, and nothing rides another's.
  EXPECT_EQ(ch->stats().doorbell_batches,
            ch->stats().request_writes + ch->stats().fetch_reads);
  EXPECT_EQ(ch->stats().batched_ops, 0u);
}

// ---- Coalesced request WRITEs -------------------------------------------------

// Copy of request slot `slot`'s whole block in the server's request ring.
std::vector<std::byte> ServerRequestBlock(rdma::Fabric& fabric, const Channel& ch, int slot) {
  const rdma::MemoryRegion* mr = fabric.FindRemote(rdma::RemoteKey{ch.server_rkey()});
  const size_t block = ch.response_block_bytes();
  const auto bytes = mr->bytes().subspan(
      ch.request_offset() + static_cast<size_t>(slot) * block, block);
  return {bytes.begin(), bytes.end()};
}

// Request header currently in the server's request slot `slot`.
RequestHeader ServerRequestHeader(rdma::Fabric& fabric, const Channel& ch, int slot) {
  const rdma::MemoryRegion* mr = fabric.FindRemote(rdma::RemoteKey{ch.server_rkey()});
  return mr->Load<RequestHeader>(ch.request_offset() +
                                 static_cast<size_t>(slot) * ch.response_block_bytes());
}

// Small blocks: four adjacent staged slots fit the size rule (~400 B of
// in-bound budget per slot), so the whole run leaves as one wire WRITE while
// the call accounting still books one request WRITE per call.
TEST_F(PipelineTest, AdjacentStagedSlotsCoalesceIntoOneWrite) {
  RfpOptions options;
  options.window = 4;
  options.max_message_bytes = 64;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 4));
  engine_.Spawn([](rdma::Node* client, Channel* c) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("run-" + std::to_string(i))));
    }
    const uint64_t before = client->nic().outbound_ops();
    co_await c->FlushCalls();
    EXPECT_EQ(client->nic().outbound_ops() - before, 1u);
    std::vector<std::byte> out(64);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "run-" + std::to_string(i));
    }
  }(client_node_, ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
  EXPECT_EQ(ch->stats().request_writes, 4u);
  EXPECT_EQ(ch->stats().coalesced_writes, 1u);
  EXPECT_EQ(ch->stats().coalesced_write_slots, 4u);
}

// Staged {0, 1, 3} around a posted-but-unawaited slot 2: the posted slot
// splits the run into two WRITEs, and nothing lands on slot 2's server
// request block (a marker planted in its unused tail survives the flush).
TEST_F(PipelineTest, PostedSlotSplitsCoalescedRun) {
  RfpOptions options;
  options.window = 4;
  options.max_message_bytes = 64;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 6));
  engine_.Spawn([](rdma::Fabric* fabric, rdma::Node* client, Channel* c) -> sim::Task<void> {
    std::vector<std::byte> out(64);
    const Channel::CallHandle a = co_await c->SubmitCall(AsBytes("a"));
    const Channel::CallHandle b = co_await c->SubmitCall(AsBytes("b"));
    const Channel::CallHandle held = co_await c->SubmitCall(AsBytes("held"));
    EXPECT_EQ(held.slot, 2);
    (void)co_await c->AwaitCall(a, out);  // flushes all three, frees slot 0
    (void)co_await c->AwaitCall(b, out);  // frees slot 1; slot 2 stays posted
    rdma::MemoryRegion* mr = fabric->FindRemote(rdma::RemoteKey{c->server_rkey()});
    const size_t tail = c->request_offset() + 3 * c->response_block_bytes() - 8;
    mr->Store<uint64_t>(tail, 0x5a5a5a5a5a5a5a5aULL);
    const std::vector<std::byte> slot2 = ServerRequestBlock(*fabric, *c, 2);

    std::vector<Channel::CallHandle> next;
    for (const char* msg : {"d", "e", "f"}) {
      next.push_back(co_await c->SubmitCall(AsBytes(msg)));
    }
    EXPECT_EQ(next[0].slot, 0);
    EXPECT_EQ(next[1].slot, 1);
    EXPECT_EQ(next[2].slot, 3);
    const uint64_t before = client->nic().outbound_ops();
    co_await c->FlushCalls();
    EXPECT_EQ(client->nic().outbound_ops() - before, 2u);  // [0, 1] and [3]
    EXPECT_EQ(ServerRequestBlock(*fabric, *c, 2), slot2);

    size_t got = co_await c->AwaitCall(held, out);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got), "held");
    for (size_t i = 0; i < next.size(); ++i) {
      got = co_await c->AwaitCall(next[i], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                std::string(1, "def"[i]));
    }
  }(&fabric_, client_node_, ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 6u);
  // First flush: one span over slots 0-2. Second: a span over 0-1, slot 3 alone.
  EXPECT_EQ(ch->stats().coalesced_writes, 2u);
  EXPECT_EQ(ch->stats().coalesced_write_slots, 5u);
}

// Default max_message_bytes gives 8 KiB blocks: spanning two of them would
// cost the in-bound engine far more than two small WRITEs, so the size rule
// keeps every slot its own WR.
TEST_F(PipelineTest, LargeBlocksKeepPerSlotWrites) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 4));
  engine_.Spawn([](rdma::Node* client, Channel* c) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("big-" + std::to_string(i))));
    }
    const uint64_t before = client->nic().outbound_ops();
    co_await c->FlushCalls();
    EXPECT_EQ(client->nic().outbound_ops() - before, 4u);
    std::vector<std::byte> out(16384);
    for (const Channel::CallHandle& h : handles) {
      (void)co_await c->AwaitCall(h, out);
    }
  }(client_node_, ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
  EXPECT_EQ(ch->stats().coalesced_writes, 0u);
  EXPECT_EQ(ch->stats().coalesced_write_slots, 0u);
}

// Two actors share one window-4 channel. The first flushes two large
// requests; the second flushes two small ones while the first batch is half
// complete, so two batches are in flight on one send CQ. Each flush takes
// only its own staged slots and returns once its own WRITEs completed (its
// requests sit in the server's request block). Strict checking pins the
// wr_ids: reusing 0..n-1 per batch aliased the first batch's second WR with
// the second batch's, and its completion then overtook post order
// (cq.completion_order).
TEST(PipelineConcurrencyTest, ConcurrentBatchesReapTheirOwnCompletions) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client = fabric.AddNode("client");
  rdma::Node& server = fabric.AddNode("server");
  RfpOptions options;
  options.window = 4;  // default 8 KiB blocks: one WR per slot
  Channel ch(fabric, client, server, options);
  engine.Spawn(EchoServer(engine, &ch, 4));
  const auto actor = [](sim::Engine& eng, rdma::Fabric* fab, Channel* c, std::string tag,
                        size_t bytes, sim::Time start) -> sim::Task<void> {
    co_await eng.Sleep(start);
    std::vector<std::string> msgs;
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 2; ++i) {
      msgs.push_back(tag + std::to_string(i) + std::string(bytes, 'x'));
      handles.push_back(co_await c->SubmitCall(AsBytes(msgs.back())));
    }
    co_await c->FlushCalls();
    for (const Channel::CallHandle& h : handles) {
      EXPECT_EQ(ServerRequestHeader(*fab, *c, h.slot).seq, h.seq) << tag << " slot " << h.slot;
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 2; ++i) {
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                msgs[static_cast<size_t>(i)]);
    }
  };
  // ~1.8 us of serialization per 8000-byte WRITE puts the first batch's two
  // completions ~1.8 us apart (about 4.3 us and 6.1 us); the second batch
  // posts at 5 us, between them.
  engine.Spawn(actor(engine, &fabric, &ch, "large-", 8000, 0));
  engine.Spawn(actor(engine, &fabric, &ch, "small-", 0, sim::Micros(5)));
  engine.Run();
  EXPECT_EQ(ch.stats().calls, 4u);
  EXPECT_EQ(ch.stats().request_writes, 4u);
  ASSERT_NE(fabric.checker(), nullptr);
  EXPECT_EQ(fabric.checker()->total_violations(), 0u);
}

// ---- RpcClient surface --------------------------------------------------------

class PipelineRpcTest : public ::testing::Test {
 protected:
  void StartEcho(const RfpOptions& channel_options) {
    server_ = std::make_unique<RpcServer>(fabric_, *server_node_, 1);
    server_->RegisterHandler(
        7, [](const HandlerContext&, std::span<const std::byte> req,
              std::span<std::byte> resp) -> HandlerResult {
          std::memcpy(resp.data(), req.data(), req.size());
          return HandlerResult{req.size(), sim::Nanos(300)};
        });
    channel_ = server_->AcceptChannel(*client_node_, channel_options, 0);
    client_ = std::make_unique<RpcClient>(channel_);
    server_->Start();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  std::unique_ptr<RpcServer> server_;
  Channel* channel_ = nullptr;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(PipelineRpcTest, SubmitAwaitPipelinesThroughTheStub) {
  RfpOptions options;
  options.window = 4;
  StartEcho(options);
  engine_.Spawn([](RpcServer* srv, RpcClient* cl) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      const std::string msg = "rpc-" + std::to_string(i);
      handles.push_back(co_await cl->SubmitCall(7, AsBytes(msg)));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await cl->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "rpc-" + std::to_string(i));
    }
    srv->Stop();
  }(server_.get(), client_.get()));
  engine_.Run();
  EXPECT_EQ(client_->calls(), 4u);
  EXPECT_EQ(client_->latency().count(), 4u);  // per-slot submit->await latency
  EXPECT_GE(channel_->stats().doorbell_batches, 1u);
}

TEST_F(PipelineRpcTest, CallOptionsCarryTheDeadline) {
  RfpOptions options;
  StartEcho(options);
  engine_.Spawn([](sim::Engine& eng, RpcServer* srv, RpcClient* cl) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    CallOptions opts;
    opts.deadline_ns = eng.now() + sim::Millis(5);  // generous: must not fire
    const size_t got = co_await cl->Call(7, AsBytes("deadline"), out, opts);
    EXPECT_EQ(got, 8u);
    srv->Stop();
  }(engine_, server_.get(), client_.get()));
  engine_.Run();
  EXPECT_EQ(client_->calls(), 1u);
}

// The positional-deadline overload is gone (deprecated in the pipelining PR,
// removed once the last caller migrated); designated-initializer CallOptions
// is the single way to pass a deadline and behaves identically.
TEST_F(PipelineRpcTest, CallOptionsDesignatedInitializerReplacesOldOverload) {
  RfpOptions options;
  StartEcho(options);
  engine_.Spawn([](sim::Engine& eng, RpcServer* srv, RpcClient* cl) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    const size_t got = co_await cl->Call(7, AsBytes("old-style"), out,
                                         CallOptions{.deadline_ns = eng.now() + sim::Millis(5)});
    EXPECT_EQ(got, 9u);
    srv->Stop();
  }(engine_, server_.get(), client_.get()));
  engine_.Run();
  EXPECT_EQ(client_->calls(), 1u);
}

// ---- Pipelined Jakiro ---------------------------------------------------------

TEST(PipelineJakiroTest, PipelinedMultiGetMatchesSequential) {
  auto run = [](const kv::JakiroConfig& config, std::vector<std::optional<std::string>>* got) {
    sim::Engine engine;
    rdma::Fabric fabric(engine);
    rdma::Node& server_node = fabric.AddNode("server");
    rdma::Node& client_node = fabric.AddNode("client");
    kv::JakiroServer server(fabric, server_node, config);
    kv::JakiroClient client(server, client_node);
    server.Start();
    engine.Spawn([](sim::Engine& eng, kv::JakiroServer* srv, kv::JakiroClient* cl,
                    std::vector<std::optional<std::string>>* out) -> sim::Task<void> {
      // 12 keys across the partitions; key-9 is left absent.
      for (int i = 0; i < 12; ++i) {
        if (i == 9) {
          continue;
        }
        const std::string key = "key-" + std::to_string(i);
        const std::string value = "value-" + std::to_string(i * 7);
        EXPECT_TRUE(co_await cl->Put(AsBytes(key), AsBytes(value)));
      }
      std::vector<std::string> key_store;
      for (int i = 0; i < 12; ++i) {
        key_store.push_back("key-" + std::to_string(i));
      }
      std::vector<std::span<const std::byte>> keys;
      for (const std::string& k : key_store) {
        keys.push_back(AsBytes(k));
      }
      std::vector<std::byte> arena(1 << 16);
      std::vector<std::optional<std::span<const std::byte>>> values(keys.size());
      co_await cl->MultiGet(keys, arena, values);
      for (const auto& v : values) {
        if (v.has_value()) {
          out->emplace_back(std::string(reinterpret_cast<const char*>(v->data()), v->size()));
        } else {
          out->emplace_back(std::nullopt);
        }
      }
      srv->Stop();
      (void)eng;
    }(engine, &server, &client, got));
    engine.Run();
    return client.MergedChannelStats();
  };

  kv::JakiroConfig sequential;
  sequential.server_threads = 3;
  std::vector<std::optional<std::string>> seq_values;
  const Channel::Stats seq_stats = run(sequential, &seq_values);

  std::vector<std::optional<std::string>> pipe_values;
  const Channel::Stats pipe_stats =
      run(kv::JakiroConfig::Build(sequential).Pipelined(4), &pipe_values);

  ASSERT_EQ(pipe_values.size(), 12u);
  EXPECT_EQ(pipe_values, seq_values);  // identical results, different transport
  EXPECT_FALSE(pipe_values[9].has_value());
  EXPECT_EQ(pipe_values[0], std::optional<std::string>("value-0"));
  // The pipelined run split owners' batches across the window and batched
  // the submissions; the sequential run never formed a batch.
  EXPECT_EQ(seq_stats.doorbell_batches, 0u);
  EXPECT_GE(pipe_stats.calls, seq_stats.calls);  // chunking adds calls
}

}  // namespace
}  // namespace rfp
