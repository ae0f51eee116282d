// The datagram call loop shared by the two-sided SEND/RECV clients: the UD
// RPC baseline (UdRpcClient) and the pooled connection tier (PooledClient).
//
// A call sends its staged request, then serves replies as a client polling
// its receive CQ every `poll_ns` would: the ticks are origin + k·poll_ns,
// where origin is the instant the (re)transmission's SendTo returned. At
// each tick it first retransmits if the tick reached the retry deadline
// (throwing once max_retransmits are spent), then drains the CQ, returning
// the reply whose sequence tag matches and counting every other arrival as
// a duplicate. The ticks at which that loop would find the CQ empty are not
// dispatched: the call waits on the CQ until a completion arrives or the
// deadline tick comes, then sleeps to the first tick at or after that
// instant, so every virtual timestamp stays on the grid.
//
// A reply that lands exactly on a tick is served at that tick. A polling
// client did the same whenever the delivery event was queued before that
// tick's poll, which holds when the NIC's receive service time
// (NicConfig::two_sided_rx_ns, 474 ns) exceeds poll_ns (200 ns by default).
//
// conn::PooledServer idles by the same rule, through
// CompletionQueue::WaitForTick.

#ifndef SRC_RFP_DATAGRAM_CALL_H_
#define SRC_RFP_DATAGRAM_CALL_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/rdma/memory.h"
#include "src/rdma/qp.h"
#include "src/rdma/types.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace rfp {

// A client's fixed datagram geometry: one UD QP whose receive slots are
// consecutive `slot_bytes` strides of `mr` from `rx_base` (wr_id = slot
// index), and the header layout of its replies.
struct DatagramPath {
  sim::Engine* engine;
  rdma::QueuePair* qp;
  rdma::AddressHandle server;
  rdma::MemoryRegion* mr;
  size_t rx_base;
  size_t slot_bytes;
  size_t reply_header_bytes;  // ahead of the reply payload
  // The sequence tag of the reply header at offset `rx` of `mr`.
  uint32_t (*reply_seq)(const rdma::MemoryRegion& mr, size_t rx);
  sim::Time poll_ns;
  sim::Time retry_timeout_ns;
  int max_retransmits;
  const char* name;  // error-text prefix, e.g. "ud rpc"

  // (Re)posts receive slot `wr_id`.
  void PostRecv(uint64_t wr_id) const;
};

// The caller's counters the loop bumps.
struct DatagramCounters {
  uint64_t& sends;        // includes retransmits
  uint64_t& retransmits;
  uint64_t& duplicates;   // arrivals that were not this call's reply
  uint64_t& failures;     // calls that exhausted max_retransmits
};

// Sends the `wire_bytes` request staged at `tx_offset` of path.mr (its
// header already tagged with `seq`) and returns the reply payload size,
// copied into `response`. Throws std::runtime_error after max_retransmits
// timeouts and std::length_error for a matching reply larger than
// `response`.
sim::Task<size_t> DatagramCall(const DatagramPath& path, size_t tx_offset, uint32_t wire_bytes,
                               uint32_t seq, std::span<std::byte> response,
                               DatagramCounters counters);

}  // namespace rfp

#endif  // SRC_RFP_DATAGRAM_CALL_H_
