// The datagram call loop (src/rfp/datagram_call.h) waits for arrivals
// instead of dispatching every poll tick, but must keep every virtual
// timestamp of a client that polls its receive CQ each client_poll_ns.
//
// The scenarios script the server's process time per call so that replies
// land 1 ns before a poll tick, exactly on one, 1 ns after one, and after
// the retransmit deadline (whose first reply then reaches the next call as
// a late duplicate), on both datagram clients. Completion times and
// counters are the ones the poll-every-tick loop produced; arrival instants
// are read off the client NIC's trace spans so each case is checked to be
// the case it claims. NIC service jitter is off, so a process time moves
// its reply's arrival by exactly that much.
//
// The idle pooled server waits on its CQ the same way; its serve instants
// around a poll tick are pinned against the polling loop's, next to the
// UD RPC server's, which still polls every tick.

#include <cstdint>
#include <cstring>
#include <ostream>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/conn/pooled.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/rfp/ud_rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace conn {
namespace {

constexpr uint16_t kScripted = 1;

// Request body: a call id and the process time of its first execution. A
// re-execution (a retransmitted request) takes no process time.
struct Script {
  uint64_t id;
  sim::Time first_ns;
};

rfp::HandlerResult Serve(std::set<uint64_t>* seen, std::span<const std::byte> req,
                         std::span<std::byte> resp) {
  Script s;
  std::memcpy(&s, req.data(), sizeof s);
  std::memcpy(resp.data(), req.data(), sizeof s);
  const bool first = seen->insert(s.id).second;
  return rfp::HandlerResult{sizeof s, first ? s.first_ns : 0};
}

// Instants at which datagrams land in one NIC's receive path (the end of its
// in-bound "recv" service spans, the instant of the receive CQ push).
class Arrivals : public sim::TraceSink {
 public:
  explicit Arrivals(const rdma::Nic& nic) : track_(reinterpret_cast<uint64_t>(&nic) + 1) {}
  void Span(std::string_view cat, std::string_view name, uint64_t track, sim::Time,
            sim::Time end) override {
    if (cat == "nic" && name == "recv" && track == track_) {
      at.push_back(end);
    }
  }
  void Instant(std::string_view, std::string_view, uint64_t, sim::Time) override {}
  void NameTrack(uint64_t, std::string_view) override {}

  std::vector<sim::Time> at;

 private:
  uint64_t track_;
};

struct Record {
  sim::Time done_at;
  uint64_t sends;
  uint64_t retransmits;
  uint64_t duplicates;
};

bool operator==(const Record& a, const Record& b) {
  return a.done_at == b.done_at && a.sends == b.sends && a.retransmits == b.retransmits &&
         a.duplicates == b.duplicates;
}

void PrintTo(const Record& r, std::ostream* os) {
  *os << "{" << r.done_at << ", " << r.sends << ", " << r.retransmits << ", " << r.duplicates
      << "}";
}

// The six scripted calls of both scenarios, against the recorded schedule.
// `arrivals[first + i]` is call i's reply for i < 5; call 4's reply lands
// after its retransmit deadline, and the reply to that retransmit lands
// during call 5, which counts it as a duplicate.
void CheckSchedule(const std::vector<Record>& records, const std::vector<sim::Time>& arrivals,
                   size_t first, const std::vector<Record>& expected) {
  ASSERT_EQ(records, expected);
  ASSERT_EQ(arrivals.size(), first + 7);
  const sim::Time poll = rfp::UdRpcOptions{}.client_poll_ns;
  ASSERT_EQ(poll, PooledOptions{}.client_poll_ns);
  const sim::Time* a = arrivals.data() + first;
  EXPECT_EQ(records[1].done_at - a[1], 1) << "lands 1 ns before a tick";
  EXPECT_EQ(records[2].done_at - a[2], 0) << "lands on a tick, served at that tick";
  EXPECT_EQ(records[3].done_at - a[3], poll - 1) << "lands 1 ns after a tick";
  EXPECT_GT(a[4], records[3].done_at + rfp::UdRpcOptions{}.retry_timeout_ns)
      << "lands after the retransmit deadline";
  EXPECT_GT(a[5], records[4].done_at) << "the retransmit's reply reaches the next call";
}

rdma::FabricConfig Deterministic() {
  rdma::FabricConfig config;
  config.nic.service_jitter = 0.0;
  return config;
}

// Runs `scripts` back to back through `call` (a coroutine returning the
// reply size), recording each call's completion and the client's counters.
template <typename Client, typename CallFn>
sim::Task<void> RunScripts(sim::Engine* engine, Client* client, std::vector<Script> scripts,
                           CallFn call, std::vector<Record>* out) {
  std::vector<std::byte> resp(64);
  for (const Script& s : scripts) {
    const size_t n = co_await call(client, std::as_bytes(std::span(&s, 1)), resp);
    EXPECT_EQ(n, sizeof(Script));
    const auto& st = client->stats();
    out->push_back(Record{engine->now(), st.sends, st.retransmits, st.duplicates});
  }
}

TEST(DatagramWaitTest, PooledCallsKeepThePollTickSchedule) {
  sim::Engine engine;
  rdma::Fabric fabric(engine, Deterministic());
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer rpc(fabric, server_node, 1);
  std::set<uint64_t> seen;
  rpc.RegisterHandler(kScripted, [&seen](const rfp::HandlerContext&,
                                         std::span<const std::byte> req,
                                         std::span<std::byte> resp) {
    return Serve(&seen, req, resp);
  });
  PooledServer server(fabric, rpc, {});
  server.Start();
  PooledClient client(fabric, client_node, server);
  Arrivals arrivals(client_node.nic());
  engine.set_trace_sink(&arrivals);

  std::vector<Record> records;
  engine.Spawn([](PooledClient* c) -> sim::Task<void> { co_await c->Connect(); }(&client));
  engine.RunUntil(sim::Micros(10));
  const size_t first = arrivals.at.size();  // the connect reply came before
  engine.Spawn(RunScripts(
      &engine, &client,
      {{1, 0}, {2, 181}, {3, 51}, {4, 51}, {5, sim::Micros(21)}, {6, 0}},
      [](PooledClient* c, std::span<const std::byte> req, std::span<std::byte> resp) {
        return c->Call(kScripted, req, resp);
      },
      &records));
  engine.RunUntil(sim::Micros(200));
  engine.set_trace_sink(nullptr);
  server.Stop();

  CheckSchedule(records, arrivals.at, first,
                {{13044, 2, 0, 0},
                 {16088, 3, 0, 0},
                 {18932, 4, 0, 0},
                 {21976, 5, 0, 0},
                 {45864, 7, 1, 0},
                 {48908, 8, 1, 1}});
}

TEST(DatagramWaitTest, UdRpcCallsKeepThePollTickSchedule) {
  sim::Engine engine;
  rdma::Fabric fabric(engine, Deterministic());
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::UdRpcServer server(fabric, server_node, 1);
  std::set<uint64_t> seen;
  server.RegisterHandler(kScripted, [&seen](const rfp::HandlerContext&,
                                            std::span<const std::byte> req,
                                            std::span<std::byte> resp) {
    return Serve(&seen, req, resp);
  });
  server.Start();
  rfp::UdRpcClient client(fabric, client_node, server.address(0));
  Arrivals arrivals(client_node.nic());
  engine.set_trace_sink(&arrivals);

  std::vector<Record> records;
  engine.Spawn(RunScripts(
      &engine, &client,
      {{1, 0}, {2, 125}, {3, 1}, {4, 1}, {5, sim::Micros(21)}, {6, 0}},
      [](rfp::UdRpcClient* c, std::span<const std::byte> req, std::span<std::byte> resp) {
        return c->Call(kScripted, req, resp);
      },
      &records));
  engine.RunUntil(sim::Micros(200));
  engine.set_trace_sink(nullptr);
  server.Stop();

  CheckSchedule(records, arrivals.at, 0,
                {{2844, 1, 0, 0},
                 {5688, 2, 0, 0},
                 {8332, 3, 0, 0},
                 {11176, 4, 0, 0},
                 {34864, 6, 1, 0},
                 {37708, 7, 1, 1}});
}

// A reply that takes 50 poll periods must not cost 50 engine events: the
// call waits on its CQ instead of dispatching the empty ticks. One server QP,
// whose serve loop sleeps in the handler meanwhile, so the events counted
// are the client's.
TEST(DatagramWaitTest, SlowReplyCostsNoEventPerEmptyPollTick) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer rpc(fabric, server_node, 1);
  std::set<uint64_t> seen;
  rpc.RegisterHandler(kScripted, [&seen](const rfp::HandlerContext&,
                                         std::span<const std::byte> req,
                                         std::span<std::byte> resp) {
    return Serve(&seen, req, resp);
  });
  PooledOptions options;
  options.qps = 1;
  PooledServer server(fabric, rpc, options);
  server.Start();
  PooledClient client(fabric, client_node, server, options);

  constexpr int kPeriods = 50;
  uint64_t fast_events = 0;
  uint64_t slow_events = 0;
  engine.Spawn([](sim::Engine* e, PooledClient* c, uint64_t* fast,
                  uint64_t* slow) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    for (const Script s : {Script{1, 0}, Script{2, kPeriods * PooledOptions{}.client_poll_ns}}) {
      const uint64_t before = e->events_processed();
      co_await c->Call(kScripted, std::as_bytes(std::span(&s, 1)), resp);
      *(s.first_ns == 0 ? fast : slow) = e->events_processed() - before;
    }
  }(&engine, &client, &fast_events, &slow_events));
  engine.RunUntil(sim::Micros(100));
  server.Stop();

  ASSERT_GT(fast_events, 0u);
  ASSERT_GT(slow_events, 0u);
  EXPECT_EQ(client.stats().retransmits, 0u);
  EXPECT_LE(slow_events, fast_events + 10);
}

// ---- Idle datagram servers ----------------------------------------------------

// Where a request reached a datagram server and when the server served it.
struct ServerArrival {
  sim::Time arrived;  // the request's receive CQ push at the server
  sim::Time served;   // the handler ran (the poll tick that found it)
  sim::Time done;     // the client's call returned
};

void PrintTo(const ServerArrival& r, std::ostream* os) {
  *os << "{" << r.arrived << ", " << r.served << ", " << r.done << "}";
}

bool operator==(const ServerArrival& a, const ServerArrival& b) {
  return a.arrived == b.arrived && a.served == b.served && a.done == b.done;
}

// One call, issued `delay` after the client is ready (for the pooled tier,
// after its connect returned), against an otherwise idle server.
template <typename Setup>
ServerArrival OneServedCall(sim::Time delay, Setup setup) {
  sim::Engine engine;
  rdma::Fabric fabric(engine, Deterministic());
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  ServerArrival out{-1, -1, -1};
  rfp::Handler handler = [&engine, &out](const rfp::HandlerContext&,
                                         std::span<const std::byte> req,
                                         std::span<std::byte> resp) {
    out.served = engine.now();
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), 0};
  };
  Arrivals arrivals(server_node.nic());
  engine.set_trace_sink(&arrivals);
  size_t before = 0;
  setup(engine, fabric, server_node, client_node, handler, delay, &before, &out.done,
        arrivals);
  engine.set_trace_sink(nullptr);
  if (arrivals.at.size() > before) {
    out.arrived = arrivals.at[before];
  }
  return out;
}

ServerArrival PooledServedCall(sim::Time delay) {
  return OneServedCall(delay, [](sim::Engine& engine, rdma::Fabric& fabric,
                                 rdma::Node& server_node, rdma::Node& client_node,
                                 rfp::Handler handler, sim::Time d, size_t* before,
                                 sim::Time* done, const Arrivals& arrivals) {
    rfp::RpcServer rpc(fabric, server_node, 1);
    rpc.RegisterHandler(kScripted, std::move(handler));
    PooledServer server(fabric, rpc, {});
    server.Start();
    PooledClient client(fabric, client_node, server);
    engine.Spawn([](PooledClient* c, sim::Engine* e, sim::Time wait, const Arrivals* arr,
                    size_t* first, sim::Time* at) -> sim::Task<void> {
      co_await c->Connect();
      co_await e->Sleep(wait);
      *first = arr->at.size();
      std::vector<std::byte> req(8);
      std::vector<std::byte> resp(64);
      co_await c->Call(kScripted, req, resp);
      *at = e->now();
    }(&client, &engine, d, &arrivals, before, done));
    engine.RunUntil(sim::Micros(60));
    server.Stop();
  });
}

ServerArrival UdServedCall(sim::Time delay) {
  return OneServedCall(delay, [](sim::Engine& engine, rdma::Fabric& fabric,
                                 rdma::Node& server_node, rdma::Node& client_node,
                                 rfp::Handler handler, sim::Time d, size_t* before,
                                 sim::Time* done, const Arrivals&) {
    rfp::UdRpcServer server(fabric, server_node, 1);
    server.RegisterHandler(kScripted, std::move(handler));
    server.Start();
    rfp::UdRpcClient client(fabric, client_node, server.address(0));
    *before = 0;
    engine.Spawn([](rfp::UdRpcClient* c, sim::Engine* e, sim::Time wait,
                    sim::Time* at) -> sim::Task<void> {
      co_await e->Sleep(wait);
      std::vector<std::byte> req(8);
      std::vector<std::byte> resp(64);
      co_await c->Call(kScripted, req, resp);
      *at = e->now();
    }(&client, &engine, d, done));
    engine.RunUntil(sim::Micros(60));
    server.Stop();
  });
}

// An idle pooled server waits on its receive CQ instead of polling it
// every 200 ns, yet serves a request at the tick the polling loop would
// have: the first tick of its grid at or after the arrival. Requests land
// 1 ns before a tick, on one, and 1 ns after one (the server's grid is
// phase 44 ns after its connect); the instants were recorded with the
// polling loop. The UD RPC server still polls every tick (grid phase 0) and
// must serve the same cases the same way.
TEST(DatagramWaitTest, IdleServersServeOnThePollTickGrid) {
  const sim::Time poll = PooledOptions{}.server_poll_ns;
  ASSERT_EQ(poll, 200);
  const std::vector<ServerArrival> pooled = {
      PooledServedCall(81), PooledServedCall(82), PooledServedCall(83)};
  EXPECT_EQ(pooled, (std::vector<ServerArrival>{
                        {4243, 4244, 5769}, {4244, 4244, 5770}, {4245, 4444, 5971}}));
  const std::vector<ServerArrival> ud = {UdServedCall(81), UdServedCall(82), UdServedCall(83)};
  EXPECT_EQ(ud, (std::vector<ServerArrival>{
                    {1399, 1400, 2725}, {1400, 1400, 2726}, {1401, 1600, 2927}}));
  for (const auto* runs : {&pooled, &ud}) {
    EXPECT_EQ((*runs)[0].served - (*runs)[0].arrived, 1) << "lands 1 ns before a tick";
    EXPECT_EQ((*runs)[1].served - (*runs)[1].arrived, 0) << "lands on a tick";
    EXPECT_EQ((*runs)[2].served - (*runs)[2].arrived, poll - 1) << "lands 1 ns after a tick";
  }
}

// A fully armed, idle 4-QP pooled server costs no engine event per poll
// tick: the polling loops dispatched 4 x 5,000 over 1 ms.
TEST(DatagramWaitTest, IdlePooledServerDispatchesNoEventPerPollTick) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rfp::RpcServer rpc(fabric, server_node, 1);
  PooledServer server(fabric, rpc, {});
  ASSERT_EQ(server.num_qps(), 4);
  server.Start();
  engine.RunUntil(sim::Millis(1));
  EXPECT_LE(engine.events_processed(), 20u);
  server.Stop();
}

}  // namespace
}  // namespace conn
