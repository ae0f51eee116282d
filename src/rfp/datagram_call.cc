#include "src/rfp/datagram_call.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/rdma/cq.h"

namespace rfp {

void DatagramPath::PostRecv(uint64_t wr_id) const {
  qp->PostRecv(wr_id, *mr, rx_base + static_cast<size_t>(wr_id) * slot_bytes,
               static_cast<uint32_t>(slot_bytes));
}

sim::Task<size_t> DatagramCall(const DatagramPath& path, size_t tx_offset, uint32_t wire_bytes,
                               uint32_t seq, std::span<std::byte> response,
                               DatagramCounters counters) {
  sim::Engine& engine = *path.engine;
  rdma::CompletionQueue* cq = path.qp->recv_cq();
  int transmits = 0;
  sim::Time origin = 0;         // tick 0: when the last SendTo returned
  sim::Time deadline = 0;       // retransmit at the first tick reaching it
  sim::Time deadline_tick = 0;  // that tick
  while (true) {
    if (transmits == 0 || engine.now() >= deadline) {
      if (transmits > path.max_retransmits) {
        ++counters.failures;
        throw std::runtime_error(std::string(path.name) + ": call timed out after retransmits");
      }
      if (transmits > 0) {
        ++counters.retransmits;
      }
      ++transmits;
      ++counters.sends;
      co_await path.qp->SendTo(path.server, *path.mr, tx_offset, wire_bytes);
      origin = engine.now();
      deadline = origin + path.retry_timeout_ns;
      deadline_tick = sim::TickAtOrAfter(origin, path.poll_ns, deadline);
    }
    // Drain arrived replies, filtering stale ones by sequence tag.
    while (auto wc = cq->Poll()) {
      const size_t rx = path.rx_base + static_cast<size_t>(wc->wr_id) * path.slot_bytes;
      const size_t payload =
          wc->byte_len >= path.reply_header_bytes ? wc->byte_len - path.reply_header_bytes : 0;
      const bool match = wc->ok() && path.reply_seq(*path.mr, rx) == seq;
      if (match) {
        if (payload > response.size()) {
          path.PostRecv(wc->wr_id);
          throw std::length_error(std::string(path.name) +
                                  ": response larger than output buffer");
        }
        path.mr->ReadBytes(rx + path.reply_header_bytes, response.subspan(0, payload));
      }
      path.PostRecv(wc->wr_id);
      if (match) {
        co_return payload;
      }
      ++counters.duplicates;
    }
    // The next tick that has work: the deadline tick, or the first tick at
    // or after the next arrival (never this tick, which just drained).
    const sim::Time next = engine.now() + path.poll_ns;
    sim::Time wake = next;
    if (next < deadline_tick) {
      const bool arrived = co_await cq->WaitUntil(deadline_tick);
      wake = arrived ? std::max(next, sim::TickAtOrAfter(origin, path.poll_ns, engine.now()))
                     : deadline_tick;
    }
    co_await engine.Sleep(wake - engine.now());
  }
}

}  // namespace rfp
