// RNIC performance model.
//
// Two asymmetric stations per NIC (paper Section 2.2):
//
//  * The OUT-BOUND issue pipeline — serialized software/hardware interaction
//    (WQE DMA, doorbell, completion generation) every *issued* one-sided op
//    pays. Base service `outbound_issue_ns` caps a saturated NIC at
//    ~2.11 MOPS; the service inflates when more threads post concurrently
//    than `outbound_free_threads` (QP/CQ contention).
//
//  * The IN-BOUND serving engine — pure hardware. Service is
//    max(inbound_min_gap_ns, bytes/bandwidth), giving ~11.24 MOPS for small
//    payloads and a bandwidth-bound tail that meets the out-bound curve at
//    ~2 KB (Fig 5). The gap inflates when the NIC serves more remote QPs
//    than `inbound_free_qps` (QP-state cache pressure; Fig 4's decline).
//
// Two-sided SEND/RECV pays symmetric base costs on both sides — the paper's
// observation that the asymmetry is specific to one-sided operations.

#ifndef SRC_RDMA_NIC_H_
#define SRC_RDMA_NIC_H_

#include <cstdint>
#include <string>

#include "src/obs/catalog.h"
#include "src/rdma/config.h"
#include "src/rdma/types.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace rdma {

// ~Nic flushes this catalog (src/obs/catalog.h) labeled {node}.
#define RDMA_NIC_STATS(X)                                                                       \
  X(counter, outbound_ops, "rdma.nic.outbound_ops", always, "one-sided and SEND ops issued")    \
  X(counter, inbound_ops, "rdma.nic.inbound_ops", always, "in-bound ops served")                \
  X(counter, stalls, "rdma.nic.stalls", self, "injected station stalls")                        \
  X(histogram, issue_wait_ns, "rdma.nic.issue_wait_ns", always, "issue-pipeline queueing (ns)") \
  X(histogram, issue_queue_depth, "rdma.nic.issue_queue_depth", always, "queue depth at post")

class Nic {
 public:
  struct Stats { OBS_STATS(Stats, RDMA_NIC_STATS) };

  // `node_name` labels this NIC's metrics in the observability registry
  // (see src/obs/metrics.h) and its trace tracks.
  Nic(sim::Engine& engine, const NicConfig& config, uint64_t seed = 0,
      std::string node_name = "");

  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  const NicConfig& config() const { return config_; }

  // ---- Requester (out-bound) path ----------------------------------------

  // Marks a posting thread as having an op in flight; the count drives the
  // out-bound contention multiplier. Paired with EndOutbound().
  void BeginOutbound() { ++concurrent_outbound_; }
  void EndOutbound() { --concurrent_outbound_; }
  int concurrent_outbound() const { return concurrent_outbound_; }

  // Software cost of building+posting a WR, including the per-node post lock.
  sim::Task<void> PostOverhead();

  // Software cost of detecting and reaping the completion.
  sim::Task<void> CompletionOverhead();

  // Occupies the serialized issue pipeline for a one-sided op that carries
  // `outbound_payload` bytes onto the wire (WRITE payload; 0 for READ).
  // `batch_follower` marks an op posted in the same doorbell batch as an
  // earlier op: it pays the configured marginal issue cost instead of the
  // full doorbell service (see NicConfig::outbound_batch_marginal_ns).
  sim::Task<void> IssueOneSided(Opcode op, uint32_t outbound_payload,
                                bool batch_follower = false);

  // Same, for a two-sided SEND carrying `payload` bytes.
  sim::Task<void> IssueTwoSided(uint32_t payload);

  // Requester-side landing of READ response data: bandwidth only, the
  // response is absorbed by the same hardware path that sent the request.
  sim::Task<void> AbsorbReadResponse(uint32_t payload);

  // ---- Responder (in-bound) path ------------------------------------------

  // Number of QP endpoints living on this NIC. Informational (maintained by
  // the fabric at QP creation); the performance model keys off concurrent
  // posters, not QP count.
  void AddActiveQps(int delta) { active_qps_ += delta; }
  int active_qps() const { return active_qps_; }

  // Serves an in-bound one-sided READ/WRITE of `payload` bytes in hardware.
  sim::Task<void> ServeInboundOneSided(uint32_t payload);

  // Serves an in-bound two-sided SEND of `payload` bytes.
  sim::Task<void> ServeInboundTwoSided(uint32_t payload);

  // ---- Fault hooks (src/fault/) -------------------------------------------

  // Multiplies every subsequent service time at the chosen station; 1.0 is
  // nominal. Used by the fault injector to model a degraded (hot, throttled,
  // PCIe-starved) NIC engine for a window.
  void SetOutboundDegrade(double factor) { outbound_degrade_ = factor; }
  void SetInboundDegrade(double factor) { inbound_degrade_ = factor; }
  double outbound_degrade() const { return outbound_degrade_; }
  double inbound_degrade() const { return inbound_degrade_; }

  // Occupies the station for `window` virtual time: ops already in service
  // finish, queued and new ops wait out the stall. Modelled as a normal
  // (highest-priority-by-arrival) occupant of the serialized station, so a
  // stall composes with queueing exactly like a giant op would.
  sim::Task<void> StallOutbound(sim::Time window);
  sim::Task<void> StallInbound(sim::Time window);

  // ---- Introspection -------------------------------------------------------

  uint64_t outbound_ops() const { return stats_.outbound_ops; }
  uint64_t inbound_ops() const { return stats_.inbound_ops; }
  const std::string& node_name() const { return node_name_; }

  // Time outbound ops spent queued for the issue pipeline, and the pipeline
  // queue depth sampled at each post (paper Section 2.2's out-bound
  // bottleneck, now directly observable).
  const sim::Histogram& issue_wait_ns() const { return stats_.issue_wait_ns; }
  const sim::Histogram& issue_queue_depth() const { return stats_.issue_queue_depth; }
  double IssueUtilization(sim::Time from, sim::Time to) const {
    return issue_pipeline_.Utilization(from, to);
  }
  double ServeUtilization(sim::Time from, sim::Time to) const {
    return inbound_engine_.Utilization(from, to);
  }
  // Arms an exact utilization window on both engines (Resource::WatchFrom):
  // call with the measurement start before running, then query
  // Issue/ServeUtilization(at, end) for the busy fraction of that window
  // alone.
  void WatchUtilization(sim::Time at) {
    issue_pipeline_.WatchFrom(at);
    inbound_engine_.WatchFrom(at);
  }

  // Exposed for tests: effective service times under current contention.
  sim::Time OutboundServiceTime(Opcode op, uint32_t payload,
                                bool batch_follower = false) const;
  sim::Time InboundServiceTime(uint32_t payload) const;

 private:
  double OutboundMultiplier(Opcode op) const;
  // Applies the configured service jitter to a nominal service time.
  sim::Time Jitter(sim::Time nominal);

  // Emits a trace span for a station service interval when a sink is
  // attached to the engine.
  void TraceService(std::string_view name, bool inbound, sim::Time start);

  sim::Engine& engine_;
  const NicConfig config_;
  std::string node_name_;
  sim::Rng rng_;
  sim::Resource issue_pipeline_;
  sim::Resource inbound_engine_;
  sim::Mutex post_lock_;
  int concurrent_outbound_ = 0;
  int active_qps_ = 0;
  double outbound_degrade_ = 1.0;
  double inbound_degrade_ = 1.0;
  Stats stats_;
};

}  // namespace rdma

#endif  // SRC_RDMA_NIC_H_
