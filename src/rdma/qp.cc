#include "src/rdma/qp.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/check/checker.h"
#include "src/rdma/fabric.h"
#include "src/rdma/nic.h"
#include "src/rdma/node.h"

namespace rdma {

namespace {

WorkCompletion MakeWc(Opcode op, uint32_t len, uint32_t qpn) {
  WorkCompletion wc;
  wc.opcode = op;
  wc.byte_len = len;
  wc.qp_num = qpn;
  return wc;
}

}  // namespace

void QueuePair::SetError() {
  state_ = QpState::kError;
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnQpError(qp_num_);
  }
}

void QueuePair::Recover() {
  state_ = QpState::kReady;
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnQpRecovered(qp_num_);
  }
}

sim::Task<void> QueuePair::AwaitTicket(uint64_t ticket) {
  if (ticket == 0) {
    co_return;
  }
  while (completed_ticket_ + 1 != ticket) {
    if (order_waiters_ == nullptr) {
      order_waiters_ = std::make_unique<sim::Notifier>(fabric_->engine());
    }
    co_await order_waiters_->Wait();
  }
  completed_ticket_ = ticket;
  if (order_waiters_ != nullptr) {
    order_waiters_->NotifyAll();
  }
}

void QueuePair::BeginOp() {
  if (outstanding_ops_++ == 0) {
    local_->nic().BeginOutbound();
  }
}

void QueuePair::EndOp() {
  if (--outstanding_ops_ == 0) {
    local_->nic().EndOutbound();
  }
}

sim::Task<WorkCompletion> QueuePair::Read(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                          size_t remote_off, uint32_t len, bool batch_follower) {
  WorkCompletion wc = MakeWc(Opcode::kRead, len, qp_num_);
  check::FabricChecker* chk = fabric_->checker();
  if (chk != nullptr) {
    chk->OnPost(qp_num_, Opcode::kRead, in_error(), type_ == QpType::kRc, retired_,
                batch_follower);
  }
  if (retired_) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (type_ != QpType::kRc) {
    wc.status = WcStatus::kUnsupportedOp;
    co_return wc;
  }
  if (in_error()) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (!local.InBounds(local_off, len)) {
    if (chk != nullptr) {
      chk->OnLocalBounds(qp_num_, Opcode::kRead, local_off, len, local.size(), false);
      chk->OnOpEnd(qp_num_);
    }
    wc.status = WcStatus::kLocalProtError;
    co_return wc;
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  const uint64_t ticket = ++next_ticket_;
  BeginOp();
  co_await nic.PostOverhead();
  // The READ request itself carries no payload outward.
  co_await nic.IssueOneSided(Opcode::kRead, 0, batch_follower);
  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/true));

  MemoryRegion* target = fabric_->FindRemote(rkey);
  if (chk != nullptr) {
    chk->OnRemoteAccess(qp_num_, Opcode::kRead, rkey.rkey, remote_off, len, peer_);
  }
  const bool ok = target != nullptr && target->node() == peer_ &&
                  target->InBounds(remote_off, len) && target->AllowsRemoteRead();
  co_await peer_->nic().ServeInboundOneSided(ok ? len : 0);
  // Hardware DMAs the remote bytes at the instant the serving engine handles
  // the request; concurrent remote writes before/after this instant are
  // naturally visible (or not), which is how torn reads arise.
  std::vector<std::byte> snapshot;
  if (ok) {
    snapshot.resize(len);
    target->ReadBytes(remote_off, snapshot);
    if (chk != nullptr) {
      wc.check_tick = chk->OnReadSnapshot(rkey.rkey, remote_off, len);
    }
  }

  co_await eng.Sleep(fabric_->WireDelay(peer_, local_, /*reliable=*/true));
  co_await nic.AbsorbReadResponse(ok ? len : 0);
  if (ok) {
    local.WriteBytes(local_off, snapshot);
  } else {
    wc.status = WcStatus::kRemoteAccessError;
    wc.byte_len = 0;
  }
  co_await AwaitTicket(ticket);
  co_await nic.CompletionOverhead();
  EndOp();
  if (chk != nullptr) {
    chk->OnOpEnd(qp_num_);
  }
  co_return wc;
}

sim::Task<WorkCompletion> QueuePair::Write(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                           size_t remote_off, uint32_t len, bool batch_follower) {
  WorkCompletion wc = MakeWc(Opcode::kWrite, len, qp_num_);
  check::FabricChecker* chk = fabric_->checker();
  if (chk != nullptr) {
    chk->OnPost(qp_num_, Opcode::kWrite, in_error(), type_ != QpType::kUd, retired_,
                batch_follower);
  }
  if (retired_) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (type_ == QpType::kUd) {
    wc.status = WcStatus::kUnsupportedOp;
    co_return wc;
  }
  if (in_error()) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (!local.InBounds(local_off, len)) {
    if (chk != nullptr) {
      chk->OnLocalBounds(qp_num_, Opcode::kWrite, local_off, len, local.size(), false);
      chk->OnOpEnd(qp_num_);
    }
    wc.status = WcStatus::kLocalProtError;
    co_return wc;
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  const uint64_t ticket = type_ == QpType::kRc ? ++next_ticket_ : 0;
  BeginOp();
  co_await nic.PostOverhead();
  co_await nic.IssueOneSided(Opcode::kWrite, len, batch_follower);
  // The payload leaves the local buffer during issue; snapshot it so the
  // caller may reuse the buffer immediately after completion.
  std::vector<std::byte> payload(len);
  local.ReadBytes(local_off, payload);

  if (type_ == QpType::kUc) {
    // Fire-and-forget: local completion does not wait for delivery.
    eng.Spawn(DeliverUcWrite(rkey, remote_off, std::move(payload)));
    co_await nic.CompletionOverhead();
    EndOp();
    if (chk != nullptr) {
      chk->OnOpEnd(qp_num_);
    }
    co_return wc;
  }

  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/true));
  MemoryRegion* target = fabric_->FindRemote(rkey);
  if (chk != nullptr) {
    chk->OnRemoteAccess(qp_num_, Opcode::kWrite, rkey.rkey, remote_off, len, peer_);
  }
  const bool ok = target != nullptr && target->node() == peer_ &&
                  target->InBounds(remote_off, len) && target->AllowsRemoteWrite();
  co_await peer_->nic().ServeInboundOneSided(ok ? len : 0);
  if (ok) {
    target->WriteBytes(remote_off, payload);
    target->NoteRemoteWrite(remote_off, len);
    if (chk != nullptr) {
      chk->OnRemoteWrite(rkey.rkey, remote_off, len);
    }
  } else {
    wc.status = WcStatus::kRemoteAccessError;
    wc.byte_len = 0;
  }
  co_await eng.Sleep(fabric_->WireDelay(peer_, local_, /*reliable=*/true));  // ACK
  co_await AwaitTicket(ticket);
  co_await nic.CompletionOverhead();
  EndOp();
  if (chk != nullptr) {
    chk->OnOpEnd(qp_num_);
  }
  co_return wc;
}

sim::Task<void> QueuePair::DeliverUcWrite(RemoteKey rkey, size_t remote_off,
                                          std::vector<std::byte> payload) {
  sim::Engine& eng = fabric_->engine();
  if (fabric_->DrawUnreliableLoss(local_, peer_)) {
    co_return;  // dropped in the network; nobody ever knows
  }
  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/false));
  MemoryRegion* target = fabric_->FindRemote(rkey);
  const bool ok = target != nullptr && target->node() == peer_ &&
                  target->InBounds(remote_off, payload.size()) && target->AllowsRemoteWrite();
  co_await peer_->nic().ServeInboundOneSided(ok ? static_cast<uint32_t>(payload.size()) : 0);
  if (ok) {
    target->WriteBytes(remote_off, payload);
    target->NoteRemoteWrite(remote_off, payload.size());
    if (check::FabricChecker* chk = fabric_->checker()) {
      chk->OnRemoteWrite(rkey.rkey, remote_off, payload.size());
    }
  }
}

sim::Task<WorkCompletion> QueuePair::Send(MemoryRegion& local, size_t local_off, uint32_t len) {
  WorkCompletion wc = MakeWc(Opcode::kSend, len, qp_num_);
  check::FabricChecker* chk = fabric_->checker();
  if (chk != nullptr) {
    chk->OnPost(qp_num_, Opcode::kSend, in_error(), type_ != QpType::kUd, retired_);
  }
  if (retired_) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (type_ == QpType::kUd) {
    wc.status = WcStatus::kUnsupportedOp;  // UD needs an explicit destination
    co_return wc;
  }
  if (in_error()) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (!local.InBounds(local_off, len)) {
    if (chk != nullptr) {
      chk->OnLocalBounds(qp_num_, Opcode::kSend, local_off, len, local.size(), false);
      chk->OnOpEnd(qp_num_);
    }
    wc.status = WcStatus::kLocalProtError;
    co_return wc;
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  const uint64_t ticket = type_ == QpType::kRc ? ++next_ticket_ : 0;
  BeginOp();
  co_await nic.PostOverhead();
  co_await nic.IssueTwoSided(len);
  std::vector<std::byte> payload(len);
  local.ReadBytes(local_off, payload);

  QueuePair* dst = fabric_->FindQp(peer_->id(), PeerQpNum());
  if (type_ == QpType::kUc) {
    eng.Spawn(DeliverSend(dst, std::move(payload), /*reliable=*/false));
    co_await nic.CompletionOverhead();
    EndOp();
    if (chk != nullptr) {
      chk->OnOpEnd(qp_num_);
    }
    co_return wc;
  }

  // RC: delivery result is visible to the sender.
  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/true));
  co_await peer_->nic().ServeInboundTwoSided(len);
  if (dst != nullptr && (dst->in_error() || dst->retired_)) {
    wc.status = WcStatus::kQpError;  // remote endpoint torn down
    wc.byte_len = 0;
  } else if (dst == nullptr || dst->recv_queue_.empty()) {
    wc.status = WcStatus::kRnrRetryExceeded;
    wc.byte_len = 0;
  } else {
    DeliverIntoRecv(dst, payload, qp_num_);
  }
  co_await eng.Sleep(fabric_->WireDelay(peer_, local_, /*reliable=*/true));  // ACK
  co_await AwaitTicket(ticket);
  co_await nic.CompletionOverhead();
  EndOp();
  if (chk != nullptr) {
    chk->OnOpEnd(qp_num_);
  }
  co_return wc;
}

sim::Task<WorkCompletion> QueuePair::SendTo(AddressHandle ah, MemoryRegion& local,
                                            size_t local_off, uint32_t len) {
  WorkCompletion wc = MakeWc(Opcode::kSend, len, qp_num_);
  check::FabricChecker* chk = fabric_->checker();
  if (chk != nullptr) {
    chk->OnPost(qp_num_, Opcode::kSend, in_error(), type_ == QpType::kUd, retired_);
  }
  if (retired_) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (type_ != QpType::kUd) {
    wc.status = WcStatus::kUnsupportedOp;
    co_return wc;
  }
  if (in_error()) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    co_return wc;
  }
  if (!local.InBounds(local_off, len)) {
    if (chk != nullptr) {
      chk->OnLocalBounds(qp_num_, Opcode::kSend, local_off, len, local.size(), false);
      chk->OnOpEnd(qp_num_);
    }
    wc.status = WcStatus::kLocalProtError;
    co_return wc;
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  BeginOp();
  co_await nic.PostOverhead();
  co_await nic.IssueTwoSided(len);
  std::vector<std::byte> payload(len);
  local.ReadBytes(local_off, payload);
  QueuePair* dst = fabric_->FindQp(ah.node_id, ah.qp_num);
  if (dst != nullptr && dst->type_ == QpType::kUd) {
    eng.Spawn(DeliverSend(dst, std::move(payload), /*reliable=*/false));
  }
  co_await nic.CompletionOverhead();
  EndOp();
  if (chk != nullptr) {
    chk->OnOpEnd(qp_num_);
  }
  co_return wc;
}

sim::Task<void> QueuePair::DeliverSend(QueuePair* dst, std::vector<std::byte> payload,
                                       bool reliable) {
  sim::Engine& eng = fabric_->engine();
  if (!reliable && fabric_->DrawUnreliableLoss(local_, dst == nullptr ? nullptr : dst->local_)) {
    co_return;
  }
  if (dst == nullptr) {
    co_return;
  }
  co_await eng.Sleep(fabric_->WireDelay(local_, dst->local_, /*reliable=*/false));
  co_await dst->local_->nic().ServeInboundTwoSided(static_cast<uint32_t>(payload.size()));
  if (dst->in_error() || dst->retired_) {
    ++dst->dropped_no_recv_;  // endpoint torn down; datagram evaporates
    co_return;
  }
  if (!dst->recv_queue_.empty()) {
    DeliverIntoRecv(dst, payload, qp_num_);
  } else {
    // Unreliable transports drop silently when no RECV is posted.
    ++dst->dropped_no_recv_;
  }
}

void QueuePair::DeliverIntoRecv(QueuePair* dst, const std::vector<std::byte>& payload,
                                uint32_t src_qpn) {
  PostedRecv slot = dst->recv_queue_.front();
  dst->recv_queue_.pop_front();
  WorkCompletion rwc = MakeWc(Opcode::kRecv, static_cast<uint32_t>(payload.size()), dst->qp_num_);
  rwc.wr_id = slot.wr_id;
  rwc.src_qp_num = src_qpn;
  if (payload.size() > slot.capacity) {
    rwc.status = WcStatus::kLocalProtError;  // receive buffer too small
    rwc.byte_len = 0;
  } else {
    slot.mr->WriteBytes(slot.offset, payload);
  }
  if (dst->recv_cq_ != nullptr) {
    dst->recv_cq_->Push(rwc);
  }
}

void QueuePair::PostRecv(uint64_t wr_id, MemoryRegion& mr, size_t offset, uint32_t capacity) {
  recv_queue_.push_back(PostedRecv{wr_id, &mr, offset, capacity});
}

uint32_t QueuePair::PeerQpNum() const { return peer_qp_num_; }

void QueuePair::PostRead(uint64_t wr_id, MemoryRegion& local, size_t local_off, RemoteKey rkey,
                         size_t remote_off, uint32_t len, bool batch_follower) {
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnAsyncPost(qp_num_, wr_id);
  }
  fabric_->engine().Spawn([](QueuePair* qp, uint64_t id, MemoryRegion* mr, size_t loff,
                             RemoteKey key, size_t roff, uint32_t n,
                             bool follower) -> sim::Task<void> {
    WorkCompletion wc = co_await qp->Read(*mr, loff, key, roff, n, follower);
    wc.wr_id = id;
    qp->send_cq_->Push(wc);
  }(this, wr_id, &local, local_off, rkey, remote_off, len, batch_follower));
}

void QueuePair::PostWrite(uint64_t wr_id, MemoryRegion& local, size_t local_off, RemoteKey rkey,
                          size_t remote_off, uint32_t len, bool batch_follower) {
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnAsyncPost(qp_num_, wr_id);
  }
  fabric_->engine().Spawn([](QueuePair* qp, uint64_t id, MemoryRegion* mr, size_t loff,
                             RemoteKey key, size_t roff, uint32_t n,
                             bool follower) -> sim::Task<void> {
    WorkCompletion wc = co_await qp->Write(*mr, loff, key, roff, n, follower);
    wc.wr_id = id;
    qp->send_cq_->Push(wc);
  }(this, wr_id, &local, local_off, rkey, remote_off, len, batch_follower));
}

void QueuePair::PostSend(uint64_t wr_id, MemoryRegion& local, size_t local_off, uint32_t len) {
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnAsyncPost(qp_num_, wr_id);
  }
  fabric_->engine().Spawn(
      [](QueuePair* qp, uint64_t id, MemoryRegion* mr, size_t loff, uint32_t n) -> sim::Task<void> {
        WorkCompletion wc = co_await qp->Send(*mr, loff, n);
        wc.wr_id = id;
        qp->send_cq_->Push(wc);
      }(this, wr_id, &local, local_off, len));
}

}  // namespace rdma
