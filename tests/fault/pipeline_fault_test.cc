// Failure semantics of pipelined (window > 1) channels: deadlines, BUSY
// shedding, and crash-reissue must work per slot while other slots of the
// same channel are in flight (docs/pipelining.md §5), and a QP error must
// re-post a coalesced request WRITE whole. The channel-level
// behaviors are pinned by tests/rfp/ and tests/fault/fault_matrix_test.cc
// for window=1; these cases interleave them across a slot ring.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace fault {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

class PipelineFaultTest : public ::testing::Test {
 protected:
  rfp::Channel* MakeChannel(const rfp::RfpOptions& options) {
    channels_.push_back(std::make_unique<rfp::Channel>(fabric_, *client_node_, *server_node_,
                                                       options));
    return channels_.back().get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  std::vector<std::unique_ptr<rfp::Channel>> channels_;
};

// Four calls with a per-call deadline against a server that stays dark past
// it: each await must throw DeadlineExceeded for its own slot, and the freed
// slots must carry fresh (deadline-free) calls once the server wakes. The
// fresh requests overwrite the expired ones slot for slot, so the late
// server only ever sees the live window.
TEST_F(PipelineFaultTest, DeadlineExpiresPerSlot) {
  rfp::RfpOptions options;
  options.window = 4;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  rfp::Channel* ch = MakeChannel(options);
  engine_.Spawn([](sim::Engine& eng, rfp::Channel* c) -> sim::Task<void> {
    co_await eng.Sleep(sim::Micros(60));  // well past the doomed deadlines
    std::vector<std::byte> buf(16384);
    int served = 0;
    while (served < 4) {
      size_t n = 0;
      if (c->TryServerRecv(buf, &n)) {
        co_await c->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine_, ch));
  engine_.Spawn([](sim::Engine& eng, rfp::Channel* c) -> sim::Task<void> {
    rfp::CallOptions doomed;
    doomed.deadline_ns = eng.now() + sim::Micros(30);
    std::vector<rfp::Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(
          co_await c->SubmitCall(AsBytes("doomed-" + std::to_string(i)), doomed));
    }
    std::vector<std::byte> out(16384);
    int expired = 0;
    for (const rfp::Channel::CallHandle& h : handles) {
      try {
        (void)co_await c->AwaitCall(h, out);
      } catch (const rfp::DeadlineExceeded&) {
        ++expired;
      }
    }
    EXPECT_EQ(expired, 4);
    // Every slot was freed by its expired call: a full new window fits.
    std::vector<rfp::Channel::CallHandle> fresh;
    for (int i = 0; i < 4; ++i) {
      fresh.push_back(co_await c->SubmitCall(AsBytes("fresh-" + std::to_string(i))));
    }
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await c->AwaitCall(fresh[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "fresh-" + std::to_string(i));
    }
  }(engine_, ch));
  engine_.Run();
  // `calls` counts issued requests (as in the window=1 ClientSend path), so
  // the expired window and the fresh one both show up.
  EXPECT_EQ(ch->stats().calls, 8u);
}

// The server sheds the first two slots with BUSY(admission) and serves the
// rest; the shed calls back off, re-issue into their own slots, and all four
// complete with the right payloads.
TEST_F(PipelineFaultTest, BusyShedsInterleaveWithServedSlots) {
  rfp::RfpOptions options;
  options.window = 4;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  rfp::Channel* ch = MakeChannel(options);
  engine_.Spawn([](sim::Engine& eng, rfp::Channel* c) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    int seen = 0;
    int served = 0;
    while (served < 6) {  // 4 originals (2 shed) + 2 re-issues
      size_t n = 0;
      if (c->TryServerRecv(buf, &n)) {
        if (seen < 2) {
          ++seen;
          co_await c->ServerSendBusy(rfp::BusyReason::kAdmission, /*retry_after_us=*/2);
        } else {
          co_await c->ServerSend(std::span<const std::byte>(buf.data(), n));
        }
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine_, ch));
  engine_.Spawn([](rfp::Channel* c) -> sim::Task<void> {
    std::vector<rfp::Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("busy-" + std::to_string(i))));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "busy-" + std::to_string(i));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
  EXPECT_GE(ch->stats().busy_responses, 2u);
  EXPECT_GE(ch->stats().reissues, 2u);
}

// A server-thread crash while a whole window is in flight: the fetch
// timeouts re-issue each slot's request, and after the restart the pending
// headers are swept up — every call completes without client-visible errors.
TEST_F(PipelineFaultTest, CrashReissueAcrossSlots) {
  rfp::RpcServer server(fabric_, *server_node_, 1);
  server.RegisterHandler(3, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
  rfp::RfpOptions options;
  options.window = 4;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.fetch_timeout_ns = sim::Micros(50);
  options.fetch_backoff_initial_ns = sim::Micros(1);
  rfp::Channel* channel = server.AcceptChannel(*client_node_, options, 0);
  rfp::RpcClient client(channel);
  server.Start();

  // Crash before the first sweep: the whole first window lands on a dark
  // server, forcing every slot onto the timeout/re-issue path until the
  // restart sweeps up the pending headers.
  server.CrashThread(0);
  engine_.Spawn([](sim::Engine& eng, rfp::RpcServer* srv) -> sim::Task<void> {
    co_await eng.Sleep(sim::Micros(200));
    srv->RestartThread(0);
  }(engine_, &server));
  engine_.Spawn([](rfp::RpcServer* srv, rfp::RpcClient* cl) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int round = 0; round < 3; ++round) {
      std::vector<rfp::Channel::CallHandle> handles;
      for (int i = 0; i < 4; ++i) {
        const std::string msg = "crash-" + std::to_string(round) + "-" + std::to_string(i);
        handles.push_back(co_await cl->SubmitCall(3, AsBytes(msg)));
      }
      for (int i = 0; i < 4; ++i) {
        const size_t got = co_await cl->AwaitCall(handles[static_cast<size_t>(i)], out);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                  "crash-" + std::to_string(round) + "-" + std::to_string(i));
      }
    }
    srv->Stop();
  }(&server, &client));
  engine_.Run();
  EXPECT_EQ(client.calls(), 12u);
  EXPECT_EQ(server.thread_crashes(), 1u);
  // The dark window forced at least one slot onto the re-issue path.
  EXPECT_GE(channel->stats().fetch_timeouts + channel->stats().reissues, 1u);
}

// The RC pair dies while four small requests sit staged: the flush's one
// spanning WRITE completes with a QP error, the channel reconnects, and the
// span is re-posted whole — one wire WRITE carries all four slots again. Each
// request executes exactly once and every call completes, strict-clean.
TEST(PipelineFaultStrictTest, QpErrorRepostsCoalescedSpanWhole) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer server(fabric, server_node, 1);
  int executed = 0;
  server.RegisterHandler(3, [&executed](const rfp::HandlerContext&,
                                        std::span<const std::byte> req,
                                        std::span<std::byte> resp) -> rfp::HandlerResult {
    ++executed;
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
  rfp::RfpOptions options;
  options.window = 4;
  options.max_message_bytes = 64;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.reconnect_delay_ns = sim::Micros(2);
  rfp::Channel* channel = server.AcceptChannel(client_node, options, 0);
  rfp::RpcClient client(channel);
  server.Start();

  int completed = 0;
  engine.Spawn([](rfp::RpcServer* srv, rfp::RpcClient* cl, rdma::Node* node,
                  int* done) -> sim::Task<void> {
    std::vector<rfp::Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await cl->SubmitCall(3, AsBytes("span-" + std::to_string(i))));
    }
    cl->channel()->Detach();
    const uint64_t before = node->nic().outbound_ops();
    co_await cl->channel()->FlushCalls();
    // The errored post never reached the wire; the re-post is the one span.
    EXPECT_EQ(node->nic().outbound_ops() - before, 1u);
    std::vector<std::byte> out(64);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await cl->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "span-" + std::to_string(i));
      ++*done;
    }
    srv->Stop();
  }(&server, &client, &client_node, &completed));
  engine.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(executed, 4);
  const rfp::Channel::Stats& stats = channel->stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.calls, 4u);
  EXPECT_EQ(stats.request_writes, 4u);
  EXPECT_EQ(stats.recovery_request_writes, 0u);  // a re-post, not a re-issue
  EXPECT_EQ(stats.coalesced_writes, 1u);
  EXPECT_EQ(stats.coalesced_write_slots, 4u);
  ASSERT_NE(fabric.checker(), nullptr);
  EXPECT_EQ(fabric.checker()->total_violations(), 0u);
}

}  // namespace
}  // namespace fault
