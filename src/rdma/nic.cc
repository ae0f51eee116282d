#include "src/rdma/nic.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"

namespace rdma {

namespace {

sim::Time FromNs(double ns) { return static_cast<sim::Time>(ns + 0.5); }

}  // namespace

Nic::Nic(sim::Engine& engine, const NicConfig& config, uint64_t seed, std::string node_name)
    : engine_(engine),
      config_(config),
      node_name_(std::move(node_name)),
      rng_(sim::Mix64(seed ^ 0x4e4943)),  // "NIC"
      issue_pipeline_(engine, 1),
      inbound_engine_(engine, 1),
      post_lock_(engine) {
  ValidateConfig(config_);
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->NameTrack(reinterpret_cast<uint64_t>(this), node_name_ + " nic:outbound");
    trace->NameTrack(reinterpret_cast<uint64_t>(this) + 1, node_name_ + " nic:inbound");
  }
}

Nic::~Nic() {
  obs::Flush(obs::MetricsRegistry::Default(), {{"node", node_name_}}, stats_);
}

void Nic::TraceService(std::string_view name, bool inbound, sim::Time start) {
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    const uint64_t track = reinterpret_cast<uint64_t>(this) + (inbound ? 1 : 0);
    trace->Span("nic", name, track, start, engine_.now());
  }
}

sim::Time Nic::Jitter(sim::Time nominal) {
  if (config_.service_jitter <= 0.0) {
    return nominal;
  }
  const double u = 2.0 * rng_.NextDouble() - 1.0;  // [-1, 1)
  return static_cast<sim::Time>(static_cast<double>(nominal) *
                                (1.0 + config_.service_jitter * u));
}

double Nic::OutboundMultiplier(Opcode op) const {
  const int extra = std::max(0, concurrent_outbound_ - config_.outbound_free_threads);
  const double factor = op == Opcode::kRead ? config_.outbound_read_thread_factor
                                            : config_.outbound_write_thread_factor;
  return 1.0 + factor * static_cast<double>(extra);
}

sim::Time Nic::OutboundServiceTime(Opcode op, uint32_t payload, bool batch_follower) const {
  // A batch follower rides the leader's doorbell: the pipeline only pays the
  // marginal WQE-prefetch cost for it. The contention multiplier still
  // applies (per-op requester state is held either way), as does the wire
  // serialization floor, so large batched WRITEs stay bandwidth-bound.
  double base = op == Opcode::kSend    ? config_.two_sided_tx_ns
                : batch_follower       ? config_.outbound_batch_marginal_ns
                                       : config_.outbound_issue_ns;
  base *= OutboundMultiplier(op);
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  return FromNs(std::max(base, serialization) * outbound_degrade_);
}

sim::Time Nic::InboundServiceTime(uint32_t payload) const {
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  return FromNs(std::max(config_.inbound_min_gap_ns, serialization) * inbound_degrade_);
}

sim::Task<void> Nic::PostOverhead() {
  co_await post_lock_.Lock();
  co_await engine_.Sleep(FromNs(config_.post_lock_ns));
  post_lock_.Unlock();
  co_await engine_.Sleep(FromNs(config_.post_cpu_ns));
}

sim::Task<void> Nic::CompletionOverhead() {
  co_await engine_.Sleep(FromNs(config_.completion_cpu_ns));
}

sim::Task<void> Nic::IssueOneSided(Opcode op, uint32_t outbound_payload, bool batch_follower) {
  ++stats_.outbound_ops;
  // Service time (and any jitter draw) is fixed at post time, before
  // queueing, so observability never changes the simulated schedule.
  const sim::Time service = Jitter(OutboundServiceTime(op, outbound_payload, batch_follower));
  stats_.issue_queue_depth.Record(issue_pipeline_.queue_length());
  const sim::Time posted = engine_.now();
  co_await issue_pipeline_.Acquire();
  const sim::Time granted = engine_.now();
  stats_.issue_wait_ns.Record(granted - posted);
  co_await engine_.Sleep(service);
  issue_pipeline_.Release();
  TraceService(OpcodeName(op), false, granted);
}

sim::Task<void> Nic::IssueTwoSided(uint32_t payload) {
  ++stats_.outbound_ops;
  const sim::Time service = Jitter(OutboundServiceTime(Opcode::kSend, payload));
  stats_.issue_queue_depth.Record(issue_pipeline_.queue_length());
  const sim::Time posted = engine_.now();
  co_await issue_pipeline_.Acquire();
  const sim::Time granted = engine_.now();
  stats_.issue_wait_ns.Record(granted - posted);
  co_await engine_.Sleep(service);
  issue_pipeline_.Release();
  TraceService("SEND", false, granted);
}

sim::Task<void> Nic::AbsorbReadResponse(uint32_t payload) {
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  co_await engine_.Sleep(FromNs(serialization + config_.read_state_cpu_ns));
}

sim::Task<void> Nic::ServeInboundOneSided(uint32_t payload) {
  ++stats_.inbound_ops;
  const sim::Time service = Jitter(InboundServiceTime(payload));
  co_await inbound_engine_.Acquire();
  const sim::Time granted = engine_.now();
  co_await engine_.Sleep(service);
  inbound_engine_.Release();
  TraceService("serve", true, granted);
}

sim::Task<void> Nic::ServeInboundTwoSided(uint32_t payload) {
  ++stats_.inbound_ops;
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  const sim::Time service =
      Jitter(FromNs(std::max(config_.two_sided_rx_ns, serialization) * inbound_degrade_));
  co_await inbound_engine_.Acquire();
  const sim::Time granted = engine_.now();
  co_await engine_.Sleep(service);
  inbound_engine_.Release();
  TraceService("recv", true, granted);
}

sim::Task<void> Nic::StallOutbound(sim::Time window) {
  ++stats_.stalls;
  co_await issue_pipeline_.Acquire();
  const sim::Time start = engine_.now();
  co_await engine_.Sleep(window);
  issue_pipeline_.Release();
  TraceService("stall", false, start);
}

sim::Task<void> Nic::StallInbound(sim::Time window) {
  ++stats_.stalls;
  co_await inbound_engine_.Acquire();
  const sim::Time start = engine_.now();
  co_await engine_.Sleep(window);
  inbound_engine_.Release();
  TraceService("stall", true, start);
}

namespace {

void Reject(const char* what) {
  throw std::invalid_argument(std::string("rdma config: ") + what);
}

void CheckNonNegative(double v, const char* what) {
  if (!(v >= 0.0)) Reject(what);  // negated compare also rejects NaN
}

void CheckProbability(double v, const char* what) {
  if (!(v >= 0.0 && v <= 1.0)) Reject(what);
}

}  // namespace

void ValidateConfig(const NicConfig& config) {
  CheckNonNegative(config.outbound_issue_ns, "outbound_issue_ns must be >= 0");
  CheckNonNegative(config.read_state_cpu_ns, "read_state_cpu_ns must be >= 0");
  CheckNonNegative(config.post_cpu_ns, "post_cpu_ns must be >= 0");
  CheckNonNegative(config.completion_cpu_ns, "completion_cpu_ns must be >= 0");
  CheckNonNegative(config.post_lock_ns, "post_lock_ns must be >= 0");
  if (config.outbound_free_threads < 0) Reject("outbound_free_threads must be >= 0");
  CheckNonNegative(config.outbound_read_thread_factor,
                   "outbound_read_thread_factor must be >= 0");
  CheckNonNegative(config.outbound_write_thread_factor,
                   "outbound_write_thread_factor must be >= 0");
  CheckNonNegative(config.outbound_batch_marginal_ns,
                   "outbound_batch_marginal_ns must be >= 0");
  CheckNonNegative(config.inbound_min_gap_ns, "inbound_min_gap_ns must be >= 0");
  if (!(config.bandwidth_bytes_per_ns > 0.0)) Reject("bandwidth_bytes_per_ns must be > 0");
  CheckNonNegative(config.two_sided_tx_ns, "two_sided_tx_ns must be >= 0");
  CheckNonNegative(config.two_sided_rx_ns, "two_sided_rx_ns must be >= 0");
  if (config.cores < 1) Reject("cores must be >= 1");
  if (config.nic_station_cores < 0 || config.nic_station_cores >= config.cores) {
    Reject("nic_station_cores must be in [0, cores)");
  }
  CheckProbability(config.service_jitter, "service_jitter must be in [0, 1]");
  if (!std::has_single_bit(config.mem_block_bytes) || config.mem_block_bytes < 64) {
    Reject("mem_block_bytes must be a power of two >= 64");
  }
  if (config.mem_pool_level < 1 || config.mem_pool_level > 32) {
    Reject("mem_pool_level must be in [1, 32]");
  }
  if (static_cast<size_t>(std::countl_zero(config.mem_block_bytes)) <
      static_cast<size_t>(config.mem_pool_level - 1)) {
    Reject("mem_block_bytes << (mem_pool_level - 1) overflows size_t");
  }
  if (config.mem_slab_classes < 0 ||
      (config.mem_slab_classes > 0 &&
       (config.mem_block_bytes >> config.mem_slab_classes) < 32)) {
    Reject("mem_slab_classes must keep the smallest slab class >= 32 bytes");
  }
  if (config.mem_slab_magazine < 0) Reject("mem_slab_magazine must be >= 0");
  if (config.mem_max_registered_bytes != 0 &&
      config.mem_max_registered_bytes < (config.mem_block_bytes << (config.mem_pool_level - 1))) {
    Reject("mem_max_registered_bytes below one arena (mem_block_bytes << (mem_pool_level - 1))");
  }
}

void ValidateConfig(const FabricConfig& config) {
  ValidateConfig(config.nic);
  if (config.wire_latency_ns < 0) Reject("wire_latency_ns must be >= 0");
  CheckProbability(config.unreliable_loss_prob, "unreliable_loss_prob must be in [0, 1]");
}

const char* WcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess:
      return "SUCCESS";
    case WcStatus::kUnsupportedOp:
      return "UNSUPPORTED_OP";
    case WcStatus::kRemoteAccessError:
      return "REMOTE_ACCESS_ERROR";
    case WcStatus::kRnrRetryExceeded:
      return "RNR_RETRY_EXCEEDED";
    case WcStatus::kLocalProtError:
      return "LOCAL_PROT_ERROR";
    case WcStatus::kQpError:
      return "QP_ERROR";
  }
  return "UNKNOWN";
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kRead:
      return "READ";
    case Opcode::kWrite:
      return "WRITE";
    case Opcode::kSend:
      return "SEND";
    case Opcode::kRecv:
      return "RECV";
  }
  return "UNKNOWN";
}

const char* QpTypeName(QpType type) {
  switch (type) {
    case QpType::kRc:
      return "RC";
    case QpType::kUc:
      return "UC";
    case QpType::kUd:
      return "UD";
  }
  return "UNKNOWN";
}

}  // namespace rdma
