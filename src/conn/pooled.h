// Pooled-QP connection tier (docs/connections.md).
//
// The RDMAvisor observation: per-client RC connections make QP state and
// registered memory grow linearly with clients, so a million-client fabric
// needs the data plane multiplexed over shared resources. This tier serves
// M >> N logical clients through N server UD QPs:
//
//   * SRQ-style shared receive — all N QPs draw receive slots from one
//     shared, pool-backed slot arena (a hot QP drains more slots, exactly
//     what a hardware SRQ buys), so receive memory is sized for the node's
//     aggregate burst, not per client.
//   * Connection-id demux — each logical client holds a 24-bit cid assigned
//     at connect time and carried in the formerly-spare RequestHeader bits
//     (wire::PackPooledRequest); the server routes replies by cid entry, not
//     by QP, so QP count stays N however many clients connect.
//   * Setup fast path (the Swift argument: control plane must be fast too) —
//     connect is one datagram round trip against pre-registered pool memory;
//     no QP creation, no MR registration, no per-client server allocation
//     beyond one address-table entry.
//
// Requests dispatch through the owning RpcServer's handler table
// (RpcServer::FindHandler), so one registered handler serves dedicated
// channels and pooled clients alike. The transport is unreliable: clients
// carry a sequence tag, retransmit on timeout, and filter duplicate replies
// (rfp::DatagramCall); the server executes every arrival (handlers are
// idempotent by the RFP contract). Connect and disconnect are idempotent:
// a retransmitted connect gets its first arrival's cid again, and a
// retransmitted disconnect of a recently released cid is acked again.
//
// Wire format:
//   request   [rfp::RequestHeader (16 B, cid in mode/slot/size bits)]
//             [rpc_id u16][body]
//   response  [rfp::ResponseHeader (8 B, seq echo)][payload]
// Control ids kRpcConnect / kRpcDisconnect ride the same format; connect's
// body is [client_node u32][client_qpn u32] (the reply address — cid 0 has
// no entry yet) and its response body is [cid u32].

#ifndef SRC_CONN_POOLED_H_
#define SRC_CONN_POOLED_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/mem/pool.h"
#include "src/obs/catalog.h"
#include "src/rdma/fabric.h"
#include "src/rfp/datagram_call.h"
#include "src/rfp/rpc.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace conn {

// Reserved rpc ids of the connection-control plane. Applications own the low
// id space; anything >= 0xfff0 is the tier's.
constexpr uint16_t kRpcConnect = 0xfff0;
constexpr uint16_t kRpcDisconnect = 0xfff1;

struct PooledOptions {
  int qps = 4;                 // server UD QPs (the "N" of N QPs, M clients)
  int recv_slots = 256;        // shared receive slots across all server QPs
  int client_recv_slots = 8;   // posted RECVs per client QP
  uint32_t max_message_bytes = 8192;
  sim::Time server_poll_ns = 200;   // server CQ poll cadence when idle
  sim::Time client_poll_ns = 200;   // client response poll cadence
  sim::Time retry_timeout_ns = 20'000;
  int max_retransmits = 10;
  sim::Time dispatch_cpu_ns = 150;  // per-request unpack/dispatch/pack cost
};

// Throws std::invalid_argument on inconsistent options (qps < 1, fewer
// receive slots than QPs, messages too large for the pooled 16-bit size
// field, ...).
void ValidateOptions(const PooledOptions& options);

// Stats catalogs (src/obs/catalog.h). PooledClient::Stats also keeps
// disconnects, sends and duplicates for callers; those are not flushed.
#define CONN_POOLED_SERVER_STATS(X)                                                  \
  X(counter, connects, "conn.pooled.connects", always, "cids assigned")              \
  X(counter, disconnects, "conn.pooled.disconnects", always, "cids released")        \
  X(counter, requests_served, "conn.pooled.requests", always, "requests dispatched") \
  X(counter, dropped_requests, "conn.pooled.dropped_requests", self, "unknown-cid/bad requests")
#define CONN_POOLED_CLIENT_STATS(X)                                                      \
  X(counter, connects, "conn.pooled.client_connects", always, "Connect calls completed") \
  X(counter, calls, "conn.pooled.client_calls", always, "calls completed")               \
  X(counter, retransmits, "conn.pooled.client_retransmits", self, "request re-sends")    \
  X(counter, failures, "conn.pooled.client_failures", self, "calls out of retransmits")  \
  X(histogram, connect_latency, "conn.connect_ns", when(connects), "Connect latency (ns)")

// The server side: N UD QPs + one shared receive-slot arena, dispatching
// into `rpc`'s handler table. Does not touch `rpc`'s channel sweep — the
// pooled path and dedicated channels serve concurrently from one handler
// registration.
class PooledServer {
 public:
  struct Stats { OBS_STATS(Stats, CONN_POOLED_SERVER_STATS) };

  PooledServer(rdma::Fabric& fabric, rfp::RpcServer& rpc, PooledOptions options = {});

  // Flushes Stats labeled {node} and frees the slot arena back to the pool.
  ~PooledServer();

  PooledServer(const PooledServer&) = delete;
  PooledServer& operator=(const PooledServer&) = delete;

  void Start();
  void Stop() { stop_ = true; }

  int num_qps() const { return static_cast<int>(qps_.size()); }
  // Datagram address of QP `qp_index`, what clients send to.
  rdma::AddressHandle address(int qp_index) const;
  // Round-robin QP assignment for new clients.
  int PickQp() { return next_qp_++ % num_qps(); }

  rdma::Node& node() { return node_; }
  const PooledOptions& options() const { return options_; }

  // Logical connections currently live (cid entries in the demux table).
  size_t live_connections() const { return clients_.size(); }
  uint64_t connects() const { return stats_.connects; }
  uint64_t disconnects() const { return stats_.disconnects; }
  uint64_t requests_served() const { return stats_.requests_served; }
  // Requests dropped: unknown cid (stale/closed connection) or malformed.
  uint64_t dropped_requests() const { return stats_.dropped_requests; }
  // Datagrams dropped because no receive slot was posted (burst overflow).
  uint64_t recv_overflows() const;

 private:
  struct ClientEntry {
    rdma::AddressHandle reply;  // where this cid's responses go
    uint16_t connect_seq;       // seq of the connect that assigned the cid
  };
  struct Released {
    uint32_t cid;
    rdma::AddressHandle reply;
  };
  // Released cids remembered for re-acking a retransmitted disconnect: at
  // least max_retransmits x retry_timeout_ns (200 us by default) of releases
  // at any rate the benches reach.
  static constexpr size_t kReleasedCids = 4096;

  static uint64_t ReplyKey(const rdma::AddressHandle& reply) {
    return (uint64_t{reply.node_id} << 32) | reply.qp_num;
  }

  sim::Task<void> ServeLoop(int qp_index);
  // Posts free shared slots onto `qp_index` up to its fair-share target.
  // Called every loop iteration, so a QP that drains faster re-arms with
  // more of the shared pool — the SRQ effect.
  void TopUpRecv(int qp_index);
  // Receive slots each QP is topped up to: its fair share of the arena.
  size_t recv_target() const {
    return std::max<size_t>(
        1, static_cast<size_t>(options_.recv_slots) / static_cast<size_t>(num_qps()));
  }
  size_t slot_bytes() const;
  size_t rx_offset(uint32_t slot) const;
  size_t tx_offset(int qp_index) const;
  // The cid for a connect from `reply` tagged `seq`: the one its first
  // arrival got when this is a retransmit, else a fresh one.
  uint32_t Connect(const rdma::AddressHandle& reply, uint16_t seq);
  // Releases live `cid` into the released ring.
  void Release(uint32_t cid);
  // Reply address of a recently released `cid`, or nullptr.
  const rdma::AddressHandle* FindReleased(uint32_t cid) const;

  rdma::Fabric& fabric_;
  rfp::RpcServer& rpc_;
  rdma::Node& node_;
  PooledOptions options_;
  bool stop_ = false;
  bool started_ = false;
  std::vector<rdma::QueuePair*> qps_;
  std::shared_ptr<mem::Pool> pool_;
  // One pool span: [recv_slots shared slots][one tx slot per QP]. Receive
  // slots are a shared free list; wr_id = slot index.
  mem::Span arena_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint32_t, ClientEntry> clients_;
  std::unordered_map<uint64_t, uint32_t> cid_by_reply_;  // live cids by ReplyKey
  std::vector<Released> released_;  // ring of the last kReleasedCids releases
  size_t released_next_ = 0;        // oldest entry once the ring is full
  uint32_t next_cid_ = 0;
  int next_qp_ = 0;
  Stats stats_;
};

// One logical client endpoint. A single PooledClient (one UD QP, one pool
// span) can play many logical connections sequentially — Connect, calls,
// Disconnect, repeat — which is how the scale bench drives 10^6 logical
// clients through a handful of driver actors.
class PooledClient {
 public:
  struct Stats {
    OBS_STATS(Stats, CONN_POOLED_CLIENT_STATS)
    uint64_t disconnects = 0;
    uint64_t sends = 0;       // includes retransmits
    uint64_t duplicates = 0;  // late replies to already-completed seqs
  };

  // The client must use the same PooledOptions geometry as the server.
  PooledClient(rdma::Fabric& fabric, rdma::Node& node, PooledServer& server,
               PooledOptions options = {});

  // Flushes Stats labeled {client} and frees the slot span back to the pool.
  ~PooledClient();

  PooledClient(const PooledClient&) = delete;
  PooledClient& operator=(const PooledClient&) = delete;

  // Obtains a connection id from the server — one datagram round trip, no
  // MR work (the setup fast path). Throws when already connected.
  sim::Task<void> Connect();

  // Releases the connection id (acknowledged). No-op when not connected.
  sim::Task<void> Disconnect();

  // Invokes `rpc_id` through the pooled path; returns the response payload
  // size. Throws std::runtime_error after max_retransmits timeouts and
  // std::logic_error when not connected.
  sim::Task<size_t> Call(uint16_t rpc_id, std::span<const std::byte> request,
                         std::span<std::byte> response);

  bool connected() const { return cid_ != 0; }
  uint32_t cid() const { return cid_; }
  const Stats& stats() const { return stats_; }
  const sim::Histogram& connect_latency() const { return stats_.connect_latency; }

 private:
  size_t slot_bytes() const;
  size_t tx_off() const;
  // One request/response exchange under the current cid (rfp::DatagramCall).
  // The request bytes must already be staged in the tx slot after the
  // header.
  sim::Task<size_t> Transact(uint32_t body_bytes, std::span<std::byte> response);

  rdma::Fabric& fabric_;
  rdma::Node& node_;
  PooledOptions options_;
  rdma::QueuePair* qp_;
  std::shared_ptr<mem::Pool> pool_;
  mem::Span span_;  // [client_recv_slots slots][tx slot]
  rfp::DatagramPath path_;
  uint32_t cid_ = 0;
  uint16_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace conn

#endif  // SRC_CONN_POOLED_H_
