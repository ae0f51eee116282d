#include "src/conn/pooled.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/check/checker.h"
#include "src/obs/metrics.h"
#include "src/rfp/wire.h"

namespace conn {

namespace {

constexpr size_t kRpcIdBytes = sizeof(uint16_t);

// One slot fits the larger (request) direction: header + rpc id + max body.
size_t SlotBytesFor(const PooledOptions& options) {
  return rfp::kReqHeaderBytes + kRpcIdBytes + options.max_message_bytes;
}

void Reject(const char* what) {
  throw std::invalid_argument(std::string("conn pooled: ") + what);
}

}  // namespace

void ValidateOptions(const PooledOptions& options) {
  if (options.qps < 1) Reject("qps must be >= 1");
  if (options.recv_slots < options.qps) Reject("recv_slots must be >= qps");
  if (options.client_recv_slots < 1) Reject("client_recv_slots must be >= 1");
  if (options.max_message_bytes == 0) Reject("max_message_bytes must be > 0");
  // The pooled size field shares size_status with the cid's high byte, so a
  // message (rpc id + body) must fit 16 bits (wire::kPooledSizeMask).
  if (options.max_message_bytes + kRpcIdBytes > rfp::wire::kPooledSizeMask) {
    Reject("max_message_bytes must fit the pooled 16-bit size field");
  }
  if (options.server_poll_ns <= 0) Reject("server_poll_ns must be > 0");
  if (options.client_poll_ns <= 0) Reject("client_poll_ns must be > 0");
  if (options.retry_timeout_ns <= 0) Reject("retry_timeout_ns must be > 0");
  if (options.max_retransmits < 0) Reject("max_retransmits must be >= 0");
  if (options.dispatch_cpu_ns < 0) Reject("dispatch_cpu_ns must be >= 0");
}

// ---- Server -------------------------------------------------------------------

PooledServer::PooledServer(rdma::Fabric& fabric, rfp::RpcServer& rpc, PooledOptions options)
    : fabric_(fabric), rpc_(rpc), node_(rpc.node()), options_(options) {
  ValidateOptions(options_);
  for (int q = 0; q < options_.qps; ++q) {
    qps_.push_back(fabric.CreateUd(node_));
  }
  // The shared receive arena and the per-QP tx staging come from the node's
  // registered-memory pool: bringing the tier up (and every client connect
  // after it) performs zero MR registrations.
  pool_ = mem::Pool::Shared(node_);
  arena_ = pool_->Alloc(slot_bytes() *
                        (static_cast<size_t>(options_.recv_slots) +
                         static_cast<size_t>(options_.qps)));
  free_slots_.reserve(static_cast<size_t>(options_.recv_slots));
  for (int s = 0; s < options_.recv_slots; ++s) {
    free_slots_.push_back(static_cast<uint32_t>(s));
  }
}

PooledServer::~PooledServer() {
  obs::Flush(obs::MetricsRegistry::Default(), {{"node", node_.name()}}, stats_);
  for (rdma::QueuePair* qp : qps_) {
    fabric_.RetireQp(qp);
  }
  pool_->Free(arena_);
}

size_t PooledServer::slot_bytes() const { return SlotBytesFor(options_); }

size_t PooledServer::rx_offset(uint32_t slot) const {
  return arena_.offset + static_cast<size_t>(slot) * slot_bytes();
}

size_t PooledServer::tx_offset(int qp_index) const {
  return arena_.offset +
         slot_bytes() * (static_cast<size_t>(options_.recv_slots) +
                         static_cast<size_t>(qp_index));
}

rdma::AddressHandle PooledServer::address(int qp_index) const {
  return rdma::AddressHandle{node_.id(), qps_[static_cast<size_t>(qp_index)]->qp_num()};
}

uint64_t PooledServer::recv_overflows() const {
  uint64_t total = 0;
  for (const rdma::QueuePair* qp : qps_) {
    total += qp->dropped_no_recv();
  }
  return total;
}

void PooledServer::TopUpRecv(int qp_index) {
  rdma::QueuePair* qp = qps_[static_cast<size_t>(qp_index)];
  // The shared free list is what makes this an SRQ: a QP that drains faster
  // frees more slots and re-arms first, so slots flow to wherever the burst
  // lands instead of being strip-owned per QP.
  const size_t target = recv_target();
  while (!free_slots_.empty() && qp->recv_queue_depth() < target) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    qp->PostRecv(slot, *arena_.mr, rx_offset(slot), static_cast<uint32_t>(slot_bytes()));
  }
}

uint32_t PooledServer::Connect(const rdma::AddressHandle& reply, uint16_t seq) {
  // A connect retransmitted because its reply was lost carries the seq of
  // the first one, which already holds a cid: send that cid again.
  const auto live = cid_by_reply_.find(ReplyKey(reply));
  if (live != cid_by_reply_.end() && clients_.at(live->second).connect_seq == seq) {
    return live->second;
  }
  // Monotonic, skipping 0 (the handshake sentinel) and any still-live cid
  // after a 24-bit wrap (16M connects within one server lifetime).
  do {
    next_cid_ = (next_cid_ + 1) & rfp::wire::kPooledCidMax;
  } while (next_cid_ == rfp::wire::kPooledCidNone || clients_.count(next_cid_) != 0);
  clients_[next_cid_] = ClientEntry{reply, seq};
  cid_by_reply_[ReplyKey(reply)] = next_cid_;
  ++stats_.connects;
  if (check::FabricChecker* chk = fabric_.checker()) {
    chk->OnCidAssign(this, next_cid_);
  }
  return next_cid_;
}

void PooledServer::Release(uint32_t cid) {
  const auto it = clients_.find(cid);
  const rdma::AddressHandle reply = it->second.reply;
  clients_.erase(it);
  const auto live = cid_by_reply_.find(ReplyKey(reply));
  if (live != cid_by_reply_.end() && live->second == cid) {
    cid_by_reply_.erase(live);
  }
  if (released_.size() < kReleasedCids) {
    released_.push_back(Released{cid, reply});
  } else {
    released_[released_next_] = Released{cid, reply};
    released_next_ = (released_next_ + 1) % kReleasedCids;
  }
  ++stats_.disconnects;
  if (check::FabricChecker* chk = fabric_.checker()) {
    chk->OnCidRelease(this, cid);
  }
}

const rdma::AddressHandle* PooledServer::FindReleased(uint32_t cid) const {
  for (const Released& r : released_) {
    if (r.cid == cid) {
      return &r.reply;
    }
  }
  return nullptr;
}

void PooledServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (int q = 0; q < num_qps(); ++q) {
    TopUpRecv(q);
    fabric_.engine().Spawn(ServeLoop(q));
  }
}

namespace {

// Stages [ResponseHeader][payload] at `tx` and sends it. One tx slot per QP
// suffices: each ServeLoop awaits its send before polling again.
sim::Task<void> SendReply(rdma::QueuePair* qp, rdma::MemoryRegion* mr, size_t tx,
                          rdma::AddressHandle to, uint16_t seq, uint16_t time_us,
                          std::span<const std::byte> payload) {
  rfp::ResponseHeader reply;
  reply.size_status = rfp::wire::PackSizeStatus(static_cast<uint32_t>(payload.size()), true);
  reply.time_us = time_us;
  reply.seq = seq;
  mr->Store(tx, reply);
  if (!payload.empty()) {
    mr->WriteBytes(tx + rfp::kHeaderBytes, payload);
  }
  co_await qp->SendTo(to, *mr, tx,
                      static_cast<uint32_t>(rfp::kHeaderBytes + payload.size()));
}

}  // namespace

sim::Task<void> PooledServer::ServeLoop(int qp_index) {
  sim::Engine& engine = fabric_.engine();
  rdma::QueuePair* qp = qps_[static_cast<size_t>(qp_index)];
  rdma::MemoryRegion* mr = arena_.mr;
  const size_t tx = tx_offset(qp_index);
  const int thread_index = rpc_.num_threads() > 0 ? qp_index % rpc_.num_threads() : 0;
  std::vector<std::byte> request(options_.max_message_bytes);
  std::vector<std::byte> response(options_.max_message_bytes);
  while (!stop_) {
    TopUpRecv(qp_index);
    const auto wc = qp->recv_cq()->Poll();
    if (!wc.has_value()) {
      if (qp->recv_queue_depth() < recv_target()) {
        // Short of slots: a tick's top-up may re-arm from slots another QP
        // frees meanwhile, so every tick does work.
        co_await engine.Sleep(options_.server_poll_ns);
      } else {
        // Fully armed: until a datagram lands, every tick would poll an
        // empty CQ and top up nothing, so dispatch none of them.
        co_await qp->recv_cq()->WaitForTick(engine.now(), options_.server_poll_ns);
      }
      continue;
    }
    const uint32_t slot = static_cast<uint32_t>(wc->wr_id);
    const size_t rx = rx_offset(slot);
    bool ok = wc->ok() && wc->byte_len >= rfp::kReqHeaderBytes + kRpcIdBytes;
    rfp::RequestHeader header;
    uint32_t cid = 0;
    uint16_t rpc_id = 0;
    size_t body_bytes = 0;
    if (ok) {
      header = mr->Load<rfp::RequestHeader>(rx);
      cid = rfp::wire::UnpackPooledCid(header);
      const uint32_t msg = rfp::wire::UnpackPooledSize(header);
      ok = msg >= kRpcIdBytes && rfp::kReqHeaderBytes + msg <= wc->byte_len;
      if (ok) {
        rpc_id = mr->Load<uint16_t>(rx + rfp::kReqHeaderBytes);
        body_bytes = msg - kRpcIdBytes;
        mr->ReadBytes(rx + rfp::kReqHeaderBytes + kRpcIdBytes,
                      std::span(request.data(), body_bytes));
      }
    }
    // The slot is consumed either way; the next top-up re-arms it on
    // whichever QP runs dry first.
    free_slots_.push_back(slot);
    if (!ok) {
      ++stats_.dropped_requests;
      continue;
    }
    if (rpc_id == kRpcConnect) {
      if (body_bytes < 2 * sizeof(uint32_t)) {
        ++stats_.dropped_requests;
        continue;
      }
      uint32_t client_node = 0;
      uint32_t client_qpn = 0;
      std::memcpy(&client_node, request.data(), sizeof(uint32_t));
      std::memcpy(&client_qpn, request.data() + sizeof(uint32_t), sizeof(uint32_t));
      const rdma::AddressHandle reply_to{client_node, client_qpn};
      const uint32_t new_cid = Connect(reply_to, header.seq);
      std::memcpy(response.data(), &new_cid, sizeof(uint32_t));
      co_await SendReply(qp, mr, tx, reply_to, header.seq, 0,
                         std::span<const std::byte>(response.data(), sizeof(uint32_t)));
      continue;
    }
    const auto it = clients_.find(cid);
    if (cid == rfp::wire::kPooledCidNone || it == clients_.end()) {
      // A disconnect retransmitted because its ack was lost: ack it again.
      const rdma::AddressHandle* released =
          rpc_id == kRpcDisconnect ? FindReleased(cid) : nullptr;
      if (released != nullptr) {
        co_await SendReply(qp, mr, tx, *released, header.seq, 0, {});
        continue;
      }
      // Stale or closed connection: drop, the client's retransmit path
      // surfaces the failure.
      ++stats_.dropped_requests;
      continue;
    }
    // Capture the reply address by value: the handler below may suspend, and
    // a concurrent disconnect on another QP would invalidate the iterator.
    const rdma::AddressHandle reply_to = it->second.reply;
    if (rpc_id == kRpcDisconnect) {
      Release(cid);
      co_await SendReply(qp, mr, tx, reply_to, header.seq, 0, {});
      continue;
    }
    const rfp::AsyncHandler* handler = rpc_.FindHandler(rpc_id);
    if (handler == nullptr) {
      ++stats_.dropped_requests;
      continue;
    }
    // Same handler table as the channel sweep; handlers are idempotent by
    // the RFP contract, so the server executes every arrival (retransmits
    // included) without a dedup filter, like the UD baseline.
    const sim::Time begun = engine.now();
    const rfp::HandlerContext ctx{thread_index};
    const rfp::HandlerResult result =
        co_await (*handler)(ctx, std::span<const std::byte>(request.data(), body_bytes),
                            std::span<std::byte>(response.data(), response.size()));
    co_await engine.Sleep(options_.dispatch_cpu_ns + result.process_ns);
    size_t resp_size = result.response_size;
    if (result.zero_copy.valid()) {
      // Pooled responses are pushed datagrams — there is no client-READ leg
      // to fetch the entry — so an indirect result is materialized after the
      // prefix, like the dedicated channel's server-reply fallback.
      rdma::MemoryRegion* entry = fabric_.FindRemote(rdma::RemoteKey{result.zero_copy.rkey});
      const size_t value_len = result.zero_copy.len;
      if (entry == nullptr || resp_size + value_len > response.size()) {
        ++stats_.dropped_requests;
        continue;
      }
      entry->ReadBytes(result.zero_copy.offset,
                       std::span(response.data() + resp_size, value_len));
      resp_size += value_len;
    }
    ++stats_.requests_served;
    co_await SendReply(qp, mr, tx, reply_to, header.seq,
                       rfp::SaturateTimeUs(engine.now() - begun),
                       std::span<const std::byte>(response.data(), resp_size));
  }
}

// ---- Client -------------------------------------------------------------------

PooledClient::PooledClient(rdma::Fabric& fabric, rdma::Node& node, PooledServer& server,
                           PooledOptions options)
    : fabric_(fabric), node_(node), options_(options) {
  ValidateOptions(options_);
  qp_ = fabric.CreateUd(node);
  // Client buffers come from the node pool too: connecting a logical client
  // costs zero MR registrations end to end (the setup fast path).
  pool_ = mem::Pool::Shared(node);
  span_ = pool_->Alloc(slot_bytes() * (static_cast<size_t>(options_.client_recv_slots) + 1));
  path_ = rfp::DatagramPath{
      .engine = &fabric.engine(),
      .qp = qp_,
      .server = server.address(server.PickQp()),
      .mr = span_.mr,
      .rx_base = span_.offset,
      .slot_bytes = slot_bytes(),
      .reply_header_bytes = rfp::kHeaderBytes,
      .reply_seq = [](const rdma::MemoryRegion& mr, size_t rx) -> uint32_t {
        return mr.Load<rfp::ResponseHeader>(rx).seq;
      },
      .poll_ns = options_.client_poll_ns,
      .retry_timeout_ns = options_.retry_timeout_ns,
      .max_retransmits = options_.max_retransmits,
      .name = "conn pooled",
  };
  for (int i = 0; i < options_.client_recv_slots; ++i) {
    path_.PostRecv(static_cast<uint64_t>(i));
  }
}

PooledClient::~PooledClient() {
  obs::Flush(obs::MetricsRegistry::Default(), {{"client", node_.name()}}, stats_);
  fabric_.RetireQp(qp_);
  pool_->Free(span_);
}

size_t PooledClient::slot_bytes() const { return SlotBytesFor(options_); }

size_t PooledClient::tx_off() const {
  return span_.offset + slot_bytes() * static_cast<size_t>(options_.client_recv_slots);
}

sim::Task<void> PooledClient::Connect() {
  if (connected()) {
    throw std::logic_error("conn pooled: already connected");
  }
  const sim::Time start = fabric_.engine().now();
  const size_t tx = tx_off();
  span_.mr->Store(tx + rfp::kReqHeaderBytes, kRpcConnect);
  span_.mr->Store(tx + rfp::kReqHeaderBytes + kRpcIdBytes, node_.id());
  span_.mr->Store(tx + rfp::kReqHeaderBytes + kRpcIdBytes + sizeof(uint32_t), qp_->qp_num());
  std::array<std::byte, sizeof(uint32_t)> out{};
  const size_t n = co_await Transact(
      static_cast<uint32_t>(kRpcIdBytes + 2 * sizeof(uint32_t)),
      std::span<std::byte>(out.data(), out.size()));
  if (n < sizeof(uint32_t)) {
    throw std::runtime_error("conn pooled: malformed connect response");
  }
  std::memcpy(&cid_, out.data(), sizeof(uint32_t));
  ++stats_.connects;
  stats_.connect_latency.Record(fabric_.engine().now() - start);
}

sim::Task<void> PooledClient::Disconnect() {
  if (!connected()) {
    co_return;
  }
  const size_t tx = tx_off();
  span_.mr->Store(tx + rfp::kReqHeaderBytes, kRpcDisconnect);
  co_await Transact(static_cast<uint32_t>(kRpcIdBytes), {});
  cid_ = 0;
  ++stats_.disconnects;
}

sim::Task<size_t> PooledClient::Call(uint16_t rpc_id, std::span<const std::byte> request,
                                     std::span<std::byte> response) {
  if (!connected()) {
    throw std::logic_error("conn pooled: Call before Connect");
  }
  if (request.size() > options_.max_message_bytes) {
    throw std::invalid_argument("conn pooled: request exceeds max_message_bytes");
  }
  const size_t tx = tx_off();
  span_.mr->Store(tx + rfp::kReqHeaderBytes, rpc_id);
  if (!request.empty()) {
    span_.mr->WriteBytes(tx + rfp::kReqHeaderBytes + kRpcIdBytes, request);
  }
  ++stats_.calls;
  co_return co_await Transact(static_cast<uint32_t>(kRpcIdBytes + request.size()), response);
}

sim::Task<size_t> PooledClient::Transact(uint32_t body_bytes, std::span<std::byte> response) {
  const size_t tx = tx_off();
  const uint16_t seq = ++next_seq_;
  rfp::RequestHeader header;
  rfp::wire::PackPooledRequest(header, body_bytes, cid_, seq);
  span_.mr->Store(tx, header);
  co_return co_await rfp::DatagramCall(
      path_, tx, rfp::kReqHeaderBytes + body_bytes, seq, response,
      rfp::DatagramCounters{stats_.sends, stats_.retransmits, stats_.duplicates, stats_.failures});
}

}  // namespace conn
