// One mixed RpcServer scenario whose every outcome is pinned: server and
// per-channel Stats, per-client outcomes and the instant the engine drains.
// The sweep visits only channels a remote write touched since their last
// drained visit (Channel::TakeRequestReady), and the numbers below were
// recorded with a sweep that visited every owned channel on every sweep, so
// they prove the skipping changes nothing in virtual time.
//
// The scenario exercises every path that must keep a channel visited:
//   * window 1 and window 8 channels sharing one worker;
//   * deadline sheds (requests whose deadline passed before they landed);
//   * an oversized request header, counted once per sweep until the
//     channel is closed;
//   * a reply-mode resend (the mode-switch WRITE lands after the handler
//     stored its response for a fetch);
//   * a channel accepted while the worker's sweep is suspended mid-visit;
//   * a CloseChannel issued from inside the channel's own visit (deferred);
//   * a multicore server whose worker crashes (orphan claim), restarts and
//     steals load back.

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/rfp/wire.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

constexpr uint16_t kTimed = 1;  // echo; the first 4 request bytes = process ns
constexpr uint16_t kClose = 2;  // closes the channel it arrives on, from its visit

// Nonzero counters of a Stats catalog, and the sample count and max of its
// histograms, as "name=value" words.
template <typename S>
std::string Describe(const S& stats) {
  std::ostringstream out;
  S::ForEachStat([&](auto member, auto, const char* name, auto, const char*) {
    const auto& value = stats.*member;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, sim::Histogram>) {
      if (value.count() != 0) {
        out << name << "=" << value.count() << "/" << value.max() << " ";
      }
    } else if (value != 0) {
      out << name << "=" << value << " ";
    }
  });
  return out.str();
}

std::vector<std::byte> TimedRequest(uint32_t process_ns) {
  std::vector<std::byte> req(16);
  std::memcpy(req.data(), &process_ns, sizeof process_ns);
  return req;
}

void RegisterTimed(RpcServer& server) {
  server.RegisterHandler(kTimed, [](const HandlerContext&, std::span<const std::byte> req,
                                    std::span<std::byte> resp) {
    uint32_t process_ns = 0;
    std::memcpy(&process_ns, req.data(), sizeof process_ns);
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), static_cast<sim::Time>(process_ns)};
  });
}

// What one client actor saw.
struct ClientLog {
  int completed = 0;
  int deadline_exceeded = 0;
  sim::Time done_at = -1;
};

struct Scenario {
  sim::Engine engine;
  int live_clients = 0;
  std::vector<RpcServer*> servers;

  void ClientDone(ClientLog* log) {
    log->done_at = engine.now();
    if (--live_clients == 0) {
      for (RpcServer* s : servers) {
        s->Stop();
      }
    }
  }
};

// Sequential calls with process times `ns[i]`; `deadline_every` > 0 gives
// every such call a deadline `deadline_ns` after its submit.
sim::Task<void> Calls(Scenario* sc, Channel* channel, std::vector<uint32_t> ns,
                      int deadline_every, sim::Time deadline_ns, ClientLog* log) {
  RpcClient client(channel);
  std::vector<std::byte> resp(64);
  for (size_t i = 0; i < ns.size(); ++i) {
    CallOptions opts;
    if (deadline_every > 0 && i % static_cast<size_t>(deadline_every) == 0) {
      opts.deadline_ns = sc->engine.now() + deadline_ns;
    }
    try {
      const size_t n = co_await client.Call(kTimed, TimedRequest(ns[i]), resp, opts);
      EXPECT_EQ(n, 16u);
      ++log->completed;
    } catch (const DeadlineExceeded&) {
      ++log->deadline_exceeded;
    }
  }
  sc->ClientDone(log);
}

// Rounds of `window` pipelined submits, each awaited in order.
sim::Task<void> Bursts(Scenario* sc, Channel* channel, int rounds, ClientLog* log) {
  RpcClient client(channel);
  std::vector<std::byte> resp(64);
  for (int r = 0; r < rounds; ++r) {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < channel->window(); ++i) {
      handles.push_back(
          co_await client.SubmitCall(kTimed, TimedRequest(static_cast<uint32_t>(200 + 10 * i))));
    }
    for (const Channel::CallHandle h : handles) {
      EXPECT_EQ(co_await client.AwaitCall(h, resp), 16u);
      ++log->completed;
    }
  }
  sc->ClientDone(log);
}

std::string RunMixedScenario() {
  Scenario sc;
  rdma::FabricConfig fc;
  fc.nic.cores = 4;
  fc.nic.nic_station_cores = 2;
  rdma::Fabric fabric(sc.engine, fc);
  rdma::Node& node_a = fabric.AddNode("server_a");
  rdma::Node& node_b = fabric.AddNode("server_b");
  rdma::Node& c0 = fabric.AddNode("c0");
  rdma::Node& c1 = fabric.AddNode("c1");

  // ---- Server A: legacy sweep, two threads ----------------------------------
  RpcServer a(fabric, node_a, 2);
  RegisterTimed(a);
  Channel* closer = nullptr;
  a.RegisterHandler(kClose, [&a, &closer](const HandlerContext&, std::span<const std::byte>,
                                          std::span<std::byte>) {
    EXPECT_TRUE(a.CloseChannel(closer));  // deferred: this visit is in progress
    return HandlerResult{0, sim::Micros(3)};
  });
  RfpOptions w8;
  w8.window = 8;
  RfpOptions racy;  // switches to server-reply after one slow call
  racy.retry_threshold = 1;
  racy.slow_calls_before_switch = 1;
  Channel* w1 = a.AcceptChannel(c0, RfpOptions{}, 0);
  Channel* slow = a.AcceptChannel(c1, RfpOptions{}, 0);
  Channel* pipe = a.AcceptChannel(c0, w8, 0);
  Channel* bad = a.AcceptChannel(c1, RfpOptions{}, 0);
  closer = a.AcceptChannel(c0, RfpOptions{}, 0);
  Channel* race = a.AcceptChannel(c1, racy, 1);
  Channel* t1 = a.AcceptChannel(c0, RfpOptions{}, 1);

  // ---- Server B: multicore, two workers, stealing ----------------------------
  ServerOptions mso;
  mso.multicore = true;
  mso.steal_min_backlog = 1;
  RpcServer b(fabric, node_b, 2, mso);
  RegisterTimed(b);
  std::vector<Channel*> mc;
  for (int i = 0; i < 4; ++i) {
    mc.push_back(b.AcceptChannel(i % 2 == 0 ? c0 : c1, RfpOptions{}, i < 3 ? 0 : 1));
  }
  sc.servers = {&a, &b};
  a.Start();
  b.Start();

  std::vector<ClientLog> logs(12);
  const auto spawn_calls = [&](Channel* ch, std::vector<uint32_t> ns, int every,
                               sim::Time deadline, ClientLog* log) {
    ++sc.live_clients;
    sc.engine.Spawn(Calls(&sc, ch, std::move(ns), every, deadline, log));
  };
  spawn_calls(w1, std::vector<uint32_t>(40, 300), 4, 1, &logs[0]);
  spawn_calls(slow, std::vector<uint32_t>(12, 8000), 0, 0, &logs[1]);
  ++sc.live_clients;
  sc.engine.Spawn(Bursts(&sc, pipe, 5, &logs[2]));
  {
    // The switch race: a handler long enough that the client's first fetch
    // misses, short enough that its response is stored before the client's
    // mode-switch WRITE lands, so only the sweep's resend delivers it.
    std::vector<uint32_t> ns;
    for (uint32_t i = 0; i < 12; ++i) {
      ns.push_back(500 + 350 * i);
    }
    spawn_calls(race, ns, 0, 0, &logs[3]);
  }
  spawn_calls(t1, std::vector<uint32_t>(60, 250), 0, 0, &logs[4]);
  for (int i = 0; i < 4; ++i) {
    spawn_calls(mc[static_cast<size_t>(i)], std::vector<uint32_t>(50, 400), 0, 0,
                &logs[static_cast<size_t>(5 + i)]);
  }
  sc.engine.ScheduleAt(sim::Micros(30), [&b] { b.CrashThread(0); });
  sc.engine.ScheduleAt(sim::Micros(90), [&b] { b.RestartThread(0); });

  // A forged header whose size exceeds every dispatch buffer lands on `bad`
  // at 20 us; the sweep counts it on every visit until `bad` closes.
  rdma::MemoryRegion* forge = c1.RegisterMemory(64, rdma::kAccessLocal);
  RequestHeader header;
  header.size_status = wire::PackRequestSizeStatus(wire::kReqSizeMask, true, 0);
  header.seq = 7;
  forge->Store(0, header);
  rdma::QueuePair* forge_qp = fabric.ConnectRc(c1, node_a).first;
  ++sc.live_clients;
  sc.engine.Spawn([](Scenario* s, rdma::QueuePair* qp, rdma::MemoryRegion* src, Channel* ch,
                     ClientLog* log) -> sim::Task<void> {
    co_await s->engine.Sleep(sim::Micros(20));
    const rdma::WorkCompletion wc =
        co_await qp->Write(*src, 0, rdma::RemoteKey{ch->server_rkey()}, ch->request_offset(),
                           sizeof(RequestHeader));
    EXPECT_TRUE(wc.ok());
    s->ClientDone(log);
  }(&sc, forge_qp, forge, bad, &logs[9]));
  sc.engine.ScheduleAt(sim::Micros(70), [&a, bad] { EXPECT_TRUE(a.CloseChannel(bad)); });

  // Mid-sweep accept at 45 us (thread 0 is inside some visit's handler
  // most of the time), then calls on the new channel.
  Channel* late = nullptr;
  ++sc.live_clients;
  sc.engine.ScheduleAt(sim::Micros(45), [&] {
    late = a.AcceptChannel(c1, RfpOptions{}, 0);
    spawn_calls(late, std::vector<uint32_t>(20, 350), 0, 0, &logs[10]);
    sc.ClientDone(&logs[11]);  // the accept itself
  });

  // The closing call: submitted raw (no client awaits a channel that is
  // about to close), its handler closes the channel from inside the visit.
  ++sc.live_clients;
  sc.engine.Spawn([](Scenario* s, Channel* ch) -> sim::Task<void> {
    co_await s->engine.Sleep(sim::Micros(35));
    std::vector<std::byte> frame(2);
    std::memcpy(frame.data(), &kClose, sizeof kClose);
    co_await ch->SubmitCall(frame, {});
    co_await ch->FlushCalls();
    ClientLog ignored;
    s->ClientDone(&ignored);
  }(&sc, closer));

  // The last client stops both servers; their sweeps then exit and the
  // queue drains. Stepping keeps a stuck run bounded and reads the drain
  // instant to 100 ns.
  bool drained = false;
  while (!drained && sc.engine.now() < sim::Millis(5)) {
    drained = sc.engine.RunUntil(sc.engine.now() + sim::Nanos(100));
  }
  EXPECT_TRUE(drained) << "a client never finished";

  std::ostringstream out;
  out << "end=" << sc.engine.now() << "\n";
  for (RpcServer* s : sc.servers) {
    out << s->node().name() << ": served=" << s->requests_served()
        << " shed_deadline=" << s->requests_shed_deadline()
        << " shed_admission=" << s->requests_shed_admission()
        << " malformed=" << s->malformed_requests() << " steals=" << s->channel_steals()
        << " crashes=" << s->thread_crashes() << " closed=" << s->channels_closed();
    for (int t = 0; t < s->num_threads(); ++t) {
      out << " t" << t << "=" << s->requests_served_by(t) << "/" << s->channels_owned_by(t)
          << "/" << s->thread_steals(t);
    }
    out << "\n";
  }
  const std::vector<std::pair<const char*, Channel*>> channels = {
      {"w1", w1},     {"slow", slow}, {"pipe", pipe}, {"race", race}, {"t1", t1},
      {"late", late}, {"mc0", mc[0]}, {"mc1", mc[1]}, {"mc2", mc[2]}, {"mc3", mc[3]}};
  for (const auto& [name, ch] : channels) {
    out << name << ": " << Describe(ch->stats()) << "\n";
  }
  for (size_t i = 0; i + 1 < logs.size(); ++i) {
    out << "client" << i << ": " << logs[i].completed << "/" << logs[i].deadline_exceeded
        << "@" << logs[i].done_at << "\n";
  }
  return out.str();
}

// Recorded with the visit-every-channel sweep. Reading guide: server lines
// give requests served, sheds, malformed drops, steals, crashes and closed
// channels, then per thread served/owned/steals; channel lines the nonzero
// Channel::Stats (histograms as samples/max); client lines completed/
// DeadlineExceeded@finish time (ns).
constexpr const char* kRecorded = R"(end=242500
server_a: served=175 shed_deadline=7 shed_admission=0 malformed=8 steals=0 crashes=0 closed=2 t0=103/4/0 t1=72/2/0
server_b: served=200 shed_deadline=0 shed_admission=0 malformed=0 steals=5 crashes=1 closed=0 t0=76/2/2 t1=124/2/3
w1: rfp.channel.calls=40 rfp.channel.request_writes=40 rfp.channel.fetch_reads=73 rfp.channel.failed_fetches=36 rfp.channel.busy_responses=7 rfp.channel.shed_deadline=7 rfp.channel.retries_per_call=30/4 
slow: rfp.channel.calls=12 rfp.channel.request_writes=12 rfp.channel.fetch_reads=21 rfp.channel.failed_fetches=18 rfp.channel.reply_pushes=9 rfp.channel.switches_to_reply=1 rfp.channel.retries_per_call=4/5 
pipe: rfp.channel.calls=40 rfp.channel.request_writes=40 rfp.channel.fetch_reads=91 rfp.channel.failed_fetches=51 rfp.channel.doorbell_batches=19 rfp.channel.batched_ops=112 rfp.channel.retries_per_call=40/3 rfp.channel.submit_window=40/8 rfp.channel.batch_occupancy=19/8 
race: rfp.channel.calls=12 rfp.channel.request_writes=12 rfp.channel.fetch_reads=8 rfp.channel.failed_fetches=4 rfp.channel.reply_pushes=8 rfp.channel.switches_to_reply=4 rfp.channel.switches_to_fetch=4 rfp.channel.retries_per_call=8/1 
t1: rfp.channel.calls=60 rfp.channel.request_writes=60 rfp.channel.fetch_reads=62 rfp.channel.failed_fetches=2 rfp.channel.retries_per_call=60/2 
late: rfp.channel.calls=20 rfp.channel.request_writes=20 rfp.channel.fetch_reads=40 rfp.channel.failed_fetches=24 rfp.channel.reply_pushes=4 rfp.channel.switches_to_reply=2 rfp.channel.switches_to_fetch=2 rfp.channel.retries_per_call=18/6 
mc0: rfp.channel.calls=50 rfp.channel.request_writes=50 rfp.channel.fetch_reads=50 rfp.channel.retries_per_call=50/0 
mc1: rfp.channel.calls=50 rfp.channel.request_writes=50 rfp.channel.fetch_reads=50 rfp.channel.retries_per_call=50/0 
mc2: rfp.channel.calls=50 rfp.channel.request_writes=50 rfp.channel.fetch_reads=55 rfp.channel.failed_fetches=5 rfp.channel.retries_per_call=50/5 
mc3: rfp.channel.calls=50 rfp.channel.request_writes=50 rfp.channel.fetch_reads=50 rfp.channel.retries_per_call=50/0 
client0: 30/10@229956
client1: 12/0@143018
client2: 40/0@58749
client3: 12/0@67277
client4: 60/0@242247
client5: 50/0@212790
client6: 50/0@153827
client7: 50/0@220501
client8: 50/0@154837
client9: 0/0@21976
client10: 20/0@176076
)";

TEST(SweepPinTest, MixedScenarioMatchesRecordedSchedule) {
  const std::string got = RunMixedScenario();
  EXPECT_EQ(got, kRecorded);
  // The paths the scenario is for all fired.
  for (const char* path : {"shed_deadline=7", "malformed=8", "closed=2", "steals=5",
                           "crashes=1", "switches_to_reply=4", "batch_occupancy=19/8"}) {
    EXPECT_NE(got.find(path), std::string::npos) << path;
  }
}

}  // namespace
}  // namespace rfp
