// The repository benchmark: one binary, four named workloads (README.md).
//
//   rfp_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                 [--trace-out PATH] [--reps N] [--quick] [--check strict]
//
// Every workload is a closed loop of simulated clients driven only through
// the library's public entry points, in this one single-threaded process.
// A run repeats the workload -- set-up, a fixed virtual-time window,
// teardown -- at the same seed until --seconds of host time have passed
// (--reps N runs exactly N whole repetitions instead). The first
// repetitions run the whole window and give the virtual-time metrics, which
// must be identical in each; later ones stop at the workload's shorter host
// window and only add host-time samples (see HostRate).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced repetitions: the traced ones record spans around every call into a
// layer (kept in memory, written to --trace-out at exit) and time the
// benchmark's own input generation; the run prints the per-layer metrics,
// the binding layer, and the tracing overhead. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is 1 when
// any response was wrong or a repetition diverged.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/check/checker.h"
#include "src/conn/pooled.h"
#include "src/kv/jakiro.h"
#include "src/mem/pool.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/workload/ycsb.h"

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

int64_t HostNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kProcessStart).count();
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Host seconds the benchmark's thread has run on a CPU. Host-time metrics
// use this clock, not the wall clock, so time the thread spends descheduled
// on a shared machine does not count as simulator cost.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Spans ---------------------------------------------------------------------
//
// One span per call into a layer: virtual-time spans from the simulated
// clients, host-clock spans for set-up phases and Engine::RunUntil. Spans of
// one op share its op id; `parent` indexes the causing span (-1 = root).

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int64_t parent;
  uint64_t op;
  uint32_t track;  // simulated client index (virtual) or 0 (host)
  bool host;
};

class SpanLog {
 public:
  int64_t Open(const char* name, int64_t start, int64_t parent, uint64_t op, uint32_t track,
               bool host = false) {
    spans_.push_back(Span{name, start, -1, parent, op, track, host});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id, int64_t end) { spans_[static_cast<size_t>(id)].end = end; }
  void Clear() { spans_.clear(); }
  size_t size() const { return spans_.size(); }

  // Chrome trace-event JSON (loads in Perfetto): pid 1 = virtual time,
  // pid 2 = host clock. Spans still open at the end of the run are dropped.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end < s.start) {
        continue;
      }
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%llu}}",
                   first ? "" : ",\n", s.name, s.host ? 2 : 1, s.track,
                   static_cast<double>(s.start) / 1000.0,
                   static_cast<double>(s.end - s.start) / 1000.0, i,
                   static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op));
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

int64_t OpenSpan(SpanLog* log, const char* name, sim::Time start, int64_t parent, uint64_t op,
                 uint32_t track) {
  return log != nullptr ? log->Open(name, start, parent, op, track) : -1;
}

void CloseSpan(SpanLog* log, int64_t id, sim::Time end) {
  if (log != nullptr) {
    log->Close(id, end);
  }
}

// ---- One repetition ------------------------------------------------------------

struct RepContext {
  uint64_t seed = 0;
  bool quick = false;
  SpanLog* spans = nullptr;  // non-null in traced repetitions
  // Host-only repetition: stop the simulation at this virtual time and skip
  // every virtual-time result (0 = run the whole window).
  sim::Time stop_at = 0;
};

// Accumulates host time spent in the benchmark's own input generation and
// output checking, when enabled (traced repetitions only: the clock reads
// themselves cost host time).
class HelperClock {
 public:
  explicit HelperClock(bool on) : on_(on) {}
  template <typename F>
  auto operator()(F&& f) {
    if (!on_) {
      return f();
    }
    const Clock::time_point t0 = Clock::now();
    struct Charge {
      HelperClock* self;
      Clock::time_point t0;
      ~Charge() { self->ns_ += static_cast<double>((Clock::now() - t0).count()); }
    } charge{this, t0};
    return f();
  }
  double ns() const { return ns_; }

 private:
  bool on_;
  double ns_ = 0;
};

struct RepResult {
  // Virtual time: identical in every repetition at one seed.
  uint64_t attempted = 0;  // ops finished inside the measure window
  uint64_t failed = 0;     // of those: failed, mismatched, refused or BUSY
  uint64_t wrong_anywhere = 0;  // failed ops over the whole run (warm-up too)
  uint64_t completed_run = 0;   // ops completed over the whole run
  double measure_s = 0;
  std::vector<int64_t> latency_ns;
  std::map<std::string, double> layer;  // virtual-time per-layer metrics
  std::string binding;
  // Host time.
  double setup_s = 0;
  double preload_s = 0;
  bool host_only = false;           // stopped early at RepContext::stop_at
  std::vector<double> slice_cpu_s;  // CPU seconds of each RunUntil slice
  std::vector<uint64_t> slice_ops;  // ops completed by each slice's end
  std::vector<uint64_t> slice_events;  // engine events by each slice's end
  double helper_ns = 0;
  uint64_t helper_ops = 0;  // ops the helper time is spread over
};

// Times one set-up phase on the CPU clock into RepResult::setup_s and, in
// traced repetitions, records it as a (wall-clock) host span.
class SetupPhase {
 public:
  SetupPhase(RepResult& rep, const RepContext& ctx, const char* name)
      : rep_(rep), ctx_(ctx), name_(name), start_(Clock::now()), cpu_start_(CpuSeconds()) {}
  ~SetupPhase() {
    rep_.setup_s += CpuSeconds() - cpu_start_;
    const Clock::time_point end = Clock::now();
    if (ctx_.spans != nullptr) {
      ctx_.spans->Close(ctx_.spans->Open(name_, HostNs(start_), -1, 0, 0, true), HostNs(end));
    }
  }
  SetupPhase(const SetupPhase&) = delete;
  SetupPhase& operator=(const SetupPhase&) = delete;

 private:
  RepResult& rep_;
  const RepContext& ctx_;
  const char* name_;
  Clock::time_point start_;
  double cpu_start_;
};

// Virtual-time slice of Engine::RunUntil that host time is measured over.
constexpr sim::Time kHostSlice = sim::Micros(100);

// Engine::RunUntil under the CPU clock, the only host time host_ops_per_s
// counts. It runs to each slice end in turn, which is the same simulation as
// one call, and records every slice's CPU time and the ops (`completed()`)
// and engine events done by its end. Runs to `until`, or only to
// ctx.stop_at in a host-only repetition; returns false in that case.
template <typename Completed>
bool TimedRun(sim::Engine& engine, sim::Time until, const RepContext& ctx, RepResult& rep,
              Completed completed) {
  rep.host_only = ctx.stop_at > 0 && ctx.stop_at < until;
  const sim::Time end = rep.host_only ? ctx.stop_at : until;
  const Clock::time_point t0 = Clock::now();
  for (sim::Time t = engine.now(); t < end;) {
    t = std::min(end, t + kHostSlice);
    const double cpu0 = CpuSeconds();
    engine.RunUntil(t);
    rep.slice_cpu_s.push_back(CpuSeconds() - cpu0);
    rep.slice_ops.push_back(completed());
    rep.slice_events.push_back(engine.events_processed());
  }
  if (ctx.spans != nullptr) {
    ctx.spans->Close(ctx.spans->Open("sim.RunUntil", HostNs(t0), -1, 0, 0, true),
                     HostNs(Clock::now()));
  }
  return !rep.host_only;
}

// Quantile q of integer-nanosecond samples, in microseconds. The sample at
// the nearest rank stands for a 1 ns bin, and the result interpolates inside
// that bin by rank (the grouped-data estimator), so a quantile that many
// samples share is not stuck to a whole nanosecond.
double QuantileUs(std::vector<int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const double target = q * static_cast<double>(v.size());
  const size_t rank = std::clamp<size_t>(static_cast<size_t>(std::ceil(target)), 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  const int64_t x = v[rank];
  const auto below = std::count_if(v.begin(), v.end(), [x](int64_t s) { return s < x; });
  const auto equal = std::count(v.begin(), v.end(), x);
  const double within = std::clamp(
      (target - static_cast<double>(below)) / static_cast<double>(equal), 0.0, 1.0);
  return (static_cast<double>(x) - 0.5 + within) / 1000.0;
}

// Values the measure window starts from, snapshotted by one passive engine
// event at the window start (it reads state and schedules nothing, so the
// simulation's event order is unchanged).
struct Snapshot {
  uint64_t events = 0;
  uint64_t server_inbound = 0;
  uint64_t server_outbound = 0;
  uint64_t registrations = 0;
  uint64_t pool_allocs = 0;
  uint64_t pool_mr_reuses = 0;
  std::vector<sim::Time> client_busy;
};

uint64_t FabricRegistrations(const rdma::Fabric& fabric, const std::vector<rdma::Node*>& nodes) {
  uint64_t total = 0;
  for (const rdma::Node* n : nodes) {
    total += fabric.RegistrationCount(*n);
  }
  return total;
}

// The node's shared mem::Pool, if anything on the node created one (never
// creates it: that would register memory mid-run).
const mem::Pool* ExistingPool(rdma::Node& node) {
  return node.pool_handle() != nullptr ? &mem::Pool::Of(node) : nullptr;
}

// Everything the per-layer attribution reads from one cluster.
struct Cluster {
  sim::Engine& engine;
  rdma::Fabric& fabric;
  rdma::Node& server;
  std::vector<rdma::Node*> clients;
  rfp::RpcServer& rpc;
  std::vector<rfp::Channel*> channels;  // every client channel
  int client_threads = 1;
  sim::Time window_start = 0;
  sim::Time window_end = 0;
  Snapshot at_start;

  std::vector<rdma::Node*> AllNodes() const {
    std::vector<rdma::Node*> all{&server};
    all.insert(all.end(), clients.begin(), clients.end());
    return all;
  }

  // Arms exact utilization windows and the start-of-window snapshot. Call
  // after every actor is spawned.
  void Watch() {
    server.nic().WatchUtilization(window_start);
    server.cpus().WatchUtilization(window_start);
    for (rdma::Node* c : clients) {
      c->nic().WatchUtilization(window_start);
    }
    engine.ScheduleAt(window_start, [this] {
      at_start.events = engine.events_processed();
      at_start.server_inbound = server.nic().inbound_ops();
      at_start.server_outbound = server.nic().outbound_ops();
      at_start.registrations = FabricRegistrations(fabric, AllNodes());
      if (const mem::Pool* pool = ExistingPool(server)) {
        at_start.pool_allocs = pool->allocs();
        at_start.pool_mr_reuses = pool->mr_reuses();
      }
      for (rfp::Channel* ch : channels) {
        at_start.client_busy.push_back(ch->client_busy().busy());
      }
    });
  }

  // The sim/rdma/rfp/mem per-layer metrics over the measure window; `ops`
  // is the number of ops completed in it.
  void Attribute(uint64_t ops, RepResult& rep) const {
    auto& m = rep.layer;
    const double n = static_cast<double>(ops);
    const sim::Time from = window_start;
    const sim::Time to = window_end;

    m["sim.events_per_op"] = Ratio(static_cast<double>(engine.events_processed() -
                                                       at_start.events), n);
    double core_max = server.cpus().Utilization(from, to);
    for (int t = 0; t < rpc.num_threads(); ++t) {
      if (rpc.thread_core(t) >= 0) {
        core_max = std::max(core_max, server.cpus().CoreUtilization(rpc.thread_core(t), from, to));
      }
    }
    m["sim.server_core_util_max"] = core_max;
    double busy = 0;
    for (size_t i = 0; i < channels.size(); ++i) {
      busy += static_cast<double>(channels[i]->client_busy().busy() - at_start.client_busy[i]);
    }
    // Busy time includes spin-polling for responses; window-edge accounting
    // can overshoot 1 by a hair, so clamp it like bench/common.cc does.
    m["sim.client_busy_frac"] = std::min(
        1.0, Ratio(busy, static_cast<double>(client_threads) * static_cast<double>(to - from)));

    const rdma::Nic& nic = server.nic();
    m["rdma.server_inbound_ops_per_op"] =
        Ratio(static_cast<double>(nic.inbound_ops() - at_start.server_inbound), n);
    m["rdma.server_outbound_ops_per_op"] =
        Ratio(static_cast<double>(nic.outbound_ops() - at_start.server_outbound), n);
    m["rdma.server_inbound_util"] = nic.ServeUtilization(from, to);
    m["rdma.server_issue_util"] = nic.IssueUtilization(from, to);
    m["rdma.server_issue_wait_p99_ns"] = static_cast<double>(nic.issue_wait_ns().Percentile(0.99));
    double client_issue = 0;
    double client_nic = 0;
    sim::Histogram client_wait;
    for (const rdma::Node* c : clients) {
      client_issue = std::max(client_issue, c->nic().IssueUtilization(from, to));
      client_nic = std::max({client_nic, c->nic().IssueUtilization(from, to),
                             c->nic().ServeUtilization(from, to)});
      client_wait.Merge(c->nic().issue_wait_ns());
    }
    m["rdma.client_issue_util_max"] = client_issue;
    m["rdma.client_issue_wait_p99_ns"] = static_cast<double>(client_wait.Percentile(0.99));
    m["rdma.registrations_delta"] =
        static_cast<double>(FabricRegistrations(fabric, AllNodes()) - at_start.registrations);
    m["rdma.server_registered_mb"] =
        static_cast<double>(fabric.RegisteredBytes(server)) / (1024.0 * 1024.0);
    m["rdma.live_qps"] = static_cast<double>(fabric.LiveQpCount(server));

    // rfp: merged client channel counters over the whole run.
    uint64_t calls = 0, writes = 0, reads = 0, failed = 0, extra = 0, pushes = 0;
    uint64_t switches = 0, spans = 0, span_slots = 0;
    sim::Histogram retries;
    sim::Histogram occupancy;
    for (const rfp::Channel* ch : channels) {
      const rfp::Channel::Stats& s = ch->stats();
      calls += s.calls;
      writes += s.request_writes;
      reads += s.fetch_reads;
      failed += s.failed_fetches;
      extra += s.extra_fetches;
      pushes += s.reply_pushes;
      switches += s.switches_to_reply;
      spans += s.coalesced_fetches;
      span_slots += s.coalesced_slots;
      retries.Merge(s.retries_per_call);
      occupancy.Merge(s.batch_occupancy);
    }
    const double c = static_cast<double>(calls);
    m["rfp.round_trips_per_call"] = Ratio(static_cast<double>(writes + reads + pushes), c);
    m["rfp.fetch_reads_per_call"] = Ratio(static_cast<double>(reads), c);
    m["rfp.failed_fetch_ratio"] = Ratio(static_cast<double>(failed), static_cast<double>(reads));
    m["rfp.extra_fetches_per_call"] = Ratio(static_cast<double>(extra), c);
    m["rfp.reply_pushes_per_call"] = Ratio(static_cast<double>(pushes), c);
    m["rfp.switches_to_reply"] = static_cast<double>(switches);
    m["rfp.retries_per_call_p99"] = static_cast<double>(retries.Percentile(0.99));
    m["rfp.batch_occupancy_mean"] = occupancy.mean();
    m["rfp.coalesced_slots_per_fetch"] =
        Ratio(static_cast<double>(span_slots), static_cast<double>(spans));
    m["rfp.channel_steals"] = static_cast<double>(rpc.channel_steals());
    m["rfp.malformed_requests"] = static_cast<double>(rpc.malformed_requests());

    if (const mem::Pool* pool = ExistingPool(server)) {
      m["mem.pool_allocs_per_op"] =
          Ratio(static_cast<double>(pool->allocs() - at_start.pool_allocs), n);
      m["mem.pool_in_use_mb"] = static_cast<double>(pool->in_use_bytes()) / (1024.0 * 1024.0);
      m["mem.mr_reuses"] = static_cast<double>(pool->mr_reuses() - at_start.pool_mr_reuses);
      m["mem.registrations"] = static_cast<double>(pool->registrations());
    }

    // Binding layer: the busiest of the utilizations read above; a tie goes
    // to the earlier entry, so the server side wins over client spinning.
    const std::pair<const char*, double> candidates[] = {
        {"nic_inbound", m["rdma.server_inbound_util"]},
        {"nic_outbound", m["rdma.server_issue_util"]},
        {"client_nic", client_nic},
        {"server_cpu", core_max},
        {"client_cpu", m["sim.client_busy_frac"]},
    };
    const auto* best = std::max_element(
        std::begin(candidates), std::end(candidates),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    char label[64];
    std::snprintf(label, sizeof(label), "%s (%.3f)", best->first, best->second);
    rep.binding = label;
  }
};

// Shared in-window accounting of one finished op.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_anywhere = 0;
  uint64_t completed_run = 0;
  std::vector<int64_t> latency_ns;

  // Counts one finished op; `in_window` says whether it belongs to the
  // measure window. Returns `in_window`.
  bool Finish(sim::Time start, sim::Time end, bool ok, bool in_window) {
    if (ok) {
      ++completed_run;
    } else {
      ++wrong_anywhere;
    }
    if (!in_window) {
      return false;
    }
    ++attempted;
    if (ok) {
      latency_ns.push_back(end - start);
    } else {
      ++failed;
    }
    return true;
  }

  void MergeInto(RepResult& rep) const {
    rep.attempted += attempted;
    rep.failed += failed;
    rep.wrong_anywhere += wrong_anywhere;
    rep.completed_run += completed_run;
    rep.latency_ns.insert(rep.latency_ns.end(), latency_ns.begin(), latency_ns.end());
  }
};

// ---- kv_read95 / kv_zerocopy_write50 ---------------------------------------------

struct KvShape {
  workload::WorkloadSpec spec;
  bool zero_copy = false;
  int server_threads = 6;
  int client_nodes = 7;
  int client_threads = 35;
  sim::Time warmup = sim::Millis(8);
  sim::Time measure = sim::Millis(32);
};

constexpr size_t kMaxValueBytes = 16384;

struct KvCounters {
  OpTally tally;
  uint64_t gets = 0;  // whole run
  uint64_t puts = 0;
  uint64_t misses = 0;
  std::vector<int64_t> get_ns;  // measure window, successful ops
  std::vector<int64_t> put_ns;
  HelperClock helpers{false};
};

// Deterministic per-key preload size under the spec's value-size law.
uint32_t PreloadValueSize(const workload::WorkloadSpec& spec, uint64_t key_id) {
  const workload::ValueSizeSpec& v = spec.value_size;
  switch (v.kind) {
    case workload::ValueSizeSpec::Kind::kFixed:
      return v.fixed;
    case workload::ValueSizeSpec::Kind::kUniformRange:
      return v.lo + static_cast<uint32_t>(sim::Mix64(key_id) % (v.hi - v.lo + 1));
    case workload::ValueSizeSpec::Kind::kLogUniform: {
      uint64_t steps = 0;
      for (uint32_t s = v.lo; s < v.hi; s <<= 1) {
        ++steps;
      }
      return v.lo << (sim::Mix64(key_id) % (steps + 1));
    }
  }
  return v.fixed;
}

sim::Task<void> KvDriver(sim::Engine& eng, kv::JakiroClient* client, workload::Generator gen,
                         sim::Time from, sim::Time to, SpanLog* spans, uint32_t track,
                         uint64_t* next_op, KvCounters* c) {
  std::vector<std::byte> key(gen.spec().key_size);
  std::vector<std::byte> value(kMaxValueBytes);
  std::vector<std::byte> out(kMaxValueBytes);
  while (eng.now() < to) {
    const workload::Op op = c->helpers([&] {
      const workload::Op o = gen.Next();
      workload::MakeKey(o.key_id, key);
      return o;
    });
    const bool is_get = op.type == workload::OpType::kGet;
    const uint64_t op_id = ++*next_op;
    const sim::Time start = eng.now();
    const int64_t parent = OpenSpan(spans, "op", start, -1, op_id, track);
    const int64_t child = OpenSpan(spans, is_get ? "kv.Get" : "kv.Put", start, parent, op_id, track);
    bool ok = false;
    try {
      if (is_get) {
        ++c->gets;
        const std::optional<size_t> got = co_await client->Get(key, out);
        if (!got.has_value()) {
          ++c->misses;  // every key is preloaded: a miss is a wrong answer
        } else {
          ok = c->helpers([&] {
            return workload::CheckValue(op.key_id, std::span<const std::byte>(out.data(), *got));
          });
        }
      } else {
        ++c->puts;
        c->helpers([&] {
          workload::FillValue(op.key_id, std::span<std::byte>(value.data(), op.value_size));
        });
        ok = co_await client->Put(key, std::span<const std::byte>(value.data(), op.value_size));
      }
    } catch (const std::exception&) {
      ok = false;
    }
    const sim::Time end = eng.now();
    CloseSpan(spans, child, end);
    CloseSpan(spans, parent, end);
    if (c->tally.Finish(start, end, ok, start >= from && end <= to) && ok) {
      (is_get ? c->get_ns : c->put_ns).push_back(end - start);
    }
  }
}

RepResult RunKv(const KvShape& shape_in, const RepContext& ctx) {
  KvShape shape = shape_in;
  if (ctx.quick) {
    shape.warmup /= 4;
    shape.measure /= 4;
  }
  RepResult rep;
  sim::Engine engine;
  std::optional<SetupPhase> phase;
  phase.emplace(rep, ctx, "setup.fabric");
  rdma::FabricConfig fc;
  fc.seed = ctx.seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < shape.client_nodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }

  phase.emplace(rep, ctx, "setup.server");
  kv::JakiroConfig jc;
  jc.server_threads = shape.server_threads;
  // Partitions hold the whole key space: about one key per 8-slot bucket,
  // so no bucket overflows and LRU-evicts a preloaded key (a GET miss here
  // is a wrong answer). bench/common.cc's RunKv sizes a quarter of this and
  // evicts ~0.1% of the keys on kv_read95.
  jc.buckets_per_partition = std::max<size_t>(
      1 << 12, shape.spec.num_keys / static_cast<size_t>(shape.server_threads));
  if (shape.zero_copy) {
    jc = kv::JakiroConfig::Build(jc).ZeroCopy();
  }
  kv::JakiroServer server(fabric, server_node, jc);

  phase.emplace(rep, ctx, "setup.preload");
  const double preload_start = CpuSeconds();
  {
    std::vector<std::byte> key(shape.spec.key_size);
    std::vector<std::byte> value(kMaxValueBytes);
    for (uint64_t id = 0; id < shape.spec.num_keys; ++id) {
      workload::MakeKey(id, key);
      const uint32_t size = PreloadValueSize(shape.spec, id);
      workload::FillValue(id, std::span<std::byte>(value.data(), size));
      server.partition(server.OwnerThread(key)).Put(key, std::span<const std::byte>(value.data(), size));
    }
  }
  rep.preload_s = CpuSeconds() - preload_start;
  uint64_t cow_at_start = 0;
  for (int t = 0; t < server.num_threads(); ++t) {
    cow_at_start += server.partition(t).stats().cow_puts;
  }

  phase.emplace(rep, ctx, "setup.clients");
  const sim::Time from = shape.warmup;
  const sim::Time to = shape.warmup + shape.measure;
  Cluster cluster{engine, fabric, server_node, client_nodes, server.rpc(), {}, shape.client_threads,
                  from, to, {}};
  std::vector<std::unique_ptr<kv::JakiroClient>> clients;
  std::vector<KvCounters> counters(static_cast<size_t>(shape.client_threads));
  uint64_t next_op = 0;
  for (int t = 0; t < shape.client_threads; ++t) {
    clients.push_back(std::make_unique<kv::JakiroClient>(
        server, *client_nodes[static_cast<size_t>(t % shape.client_nodes)]));
    for (int s = 0; s < server.num_threads(); ++s) {
      cluster.channels.push_back(clients.back()->channel(s));
    }
    KvCounters& c = counters[static_cast<size_t>(t)];
    c.helpers = HelperClock(ctx.spans != nullptr);
    engine.Spawn(KvDriver(engine, clients.back().get(),
                          workload::Generator(shape.spec, ctx.seed + static_cast<uint64_t>(t)),
                          from, to, ctx.spans, static_cast<uint32_t>(t), &next_op, &c));
  }
  server.Start();
  cluster.Watch();
  phase.reset();

  const auto completed = [&counters] {
    uint64_t n = 0;
    for (const KvCounters& c : counters) {
      n += c.tally.completed_run;
    }
    return n;
  };
  if (!TimedRun(engine, to, ctx, rep, completed)) {
    return rep;
  }

  rep.measure_s = sim::ToSeconds(shape.measure);
  uint64_t gets = 0, puts = 0, misses = 0;
  std::vector<int64_t> get_ns, put_ns;
  for (const KvCounters& c : counters) {
    c.tally.MergeInto(rep);
    gets += c.gets;
    puts += c.puts;
    misses += c.misses;
    get_ns.insert(get_ns.end(), c.get_ns.begin(), c.get_ns.end());
    put_ns.insert(put_ns.end(), c.put_ns.begin(), c.put_ns.end());
    rep.helper_ns += c.helpers.ns();
  }
  rep.helper_ops = gets + puts;
  cluster.Attribute(static_cast<uint64_t>(rep.latency_ns.size()), rep);
  uint64_t cow = 0;
  for (int t = 0; t < server.num_threads(); ++t) {
    cow += server.partition(t).stats().cow_puts;
  }
  auto& m = rep.layer;
  m["kv.get_p50_us"] = QuantileUs(get_ns, 0.50);
  m["kv.get_p999_us"] = QuantileUs(get_ns, 0.999);
  m["kv.put_p50_us"] = QuantileUs(put_ns, 0.50);
  m["kv.put_p999_us"] = QuantileUs(put_ns, 0.999);
  m["kv.miss_ratio"] = Ratio(static_cast<double>(misses), static_cast<double>(gets));
  m["kv.cow_puts_per_put"] = Ratio(static_cast<double>(cow - cow_at_start), static_cast<double>(puts));
  server.Stop();
  return rep;
}

KvShape KvRead95() {
  KvShape s;
  s.spec.num_keys = 1 << 18;
  s.spec.key_size = 16;
  s.spec.get_fraction = 0.95;
  s.spec.distribution = workload::KeyDistribution::kUniform;
  s.spec.value_size = workload::ValueSizeSpec::Fixed(32);
  return s;
}

KvShape KvZeroCopyWrite50() {
  KvShape s;
  s.zero_copy = true;
  s.spec.num_keys = 16 * 1024;
  s.spec.key_size = 16;
  s.spec.get_fraction = 0.50;
  s.spec.distribution = workload::KeyDistribution::kZipfian;
  s.spec.zipf_theta = 0.99;
  s.spec.value_size = workload::ValueSizeSpec::LogUniform(512, 8192);
  s.measure = sim::Millis(12);  // >= 10 samples beyond p99.9
  return s;
}

// ---- echo_window64 ----------------------------------------------------------------
//
// The bench_ext_multicore 4-worker / window-64 point: forced remote fetch
// with coalesced fetch sweeps, doorbell-batched bursts, and the same
// virtual-time pacing controller.

constexpr int kEchoClientNodes = 2;
constexpr int kEchoClients = 8;
constexpr int kEchoWorkers = 4;
constexpr int kEchoWindow = 64;
constexpr uint32_t kEchoBytes = 32;
constexpr sim::Time kEchoProcessNs = 150;
constexpr size_t kEchoRequestBytes = 8;

// The handler's response pattern: byte i of the reply to `request`.
std::byte EchoByte(std::span<const std::byte> request, size_t i) {
  return request[i % request.size()] ^ static_cast<std::byte>(static_cast<uint8_t>(i * 31 + 7));
}

struct EchoCounters {
  OpTally tally;
  std::vector<int64_t> submit_to_flush_ns;
  std::vector<int64_t> flush_to_complete_ns;
  HelperClock helpers{false};
  uint64_t ops_run = 0;
};

sim::Task<void> EchoDriver(sim::Engine& eng, rfp::RpcClient* client, sim::Time from,
                           sim::Time to, SpanLog* spans, uint32_t track, uint64_t* next_op,
                           EchoCounters* c) {
  const size_t window = kEchoWindow;
  std::vector<std::vector<std::byte>> req(window, std::vector<std::byte>(kEchoRequestBytes));
  std::vector<std::vector<std::byte>> resp(window, std::vector<std::byte>(kEchoBytes));
  std::vector<rfp::Channel::CallHandle> handles(window);
  std::vector<sim::Time> submitted(window);
  std::vector<int64_t> op_span(window);
  std::vector<uint64_t> op_ids(window);
  sim::Time pace = static_cast<sim::Time>(window) * 400;
  uint64_t n = 0;
  while (eng.now() < to) {
    for (size_t i = 0; i < window; ++i) {
      ++n;
      c->helpers([&] {
        for (size_t b = 0; b < kEchoRequestBytes; ++b) {
          req[i][b] = static_cast<std::byte>(static_cast<uint8_t>((n + track * 977) >> (8 * b)));
        }
      });
      op_ids[i] = ++*next_op;
      submitted[i] = eng.now();
      op_span[i] = OpenSpan(spans, "op", submitted[i], -1, op_ids[i], track);
      const int64_t s = OpenSpan(spans, "rfp.SubmitCall", submitted[i], op_span[i], op_ids[i], track);
      handles[i] = co_await client->SubmitCall(1, req[i]);
      CloseSpan(spans, s, eng.now());
    }
    // One flush serves the whole burst: its span has no single op parent.
    const int64_t f = OpenSpan(spans, "rfp.FlushCalls", eng.now(), -1, 0, track);
    co_await client->channel()->FlushCalls();
    const sim::Time flushed = eng.now();
    CloseSpan(spans, f, flushed);
    if (pace > 0) {
      co_await eng.Sleep(pace);
    }
    for (size_t i = 0; i < window; ++i) {
      const int64_t a = OpenSpan(spans, "rfp.AwaitCall", eng.now(), op_span[i], op_ids[i], track);
      bool ok = false;
      try {
        const size_t got = co_await client->AwaitCall(handles[i], resp[i]);
        ok = got == kEchoBytes && c->helpers([&] {
               for (size_t b = 0; b < kEchoBytes; ++b) {
                 if (resp[i][b] != EchoByte(req[i], b)) {
                   return false;
                 }
               }
               return true;
             });
      } catch (const std::exception&) {
        ok = false;
      }
      const sim::Time done = eng.now();
      CloseSpan(spans, a, done);
      CloseSpan(spans, op_span[i], done);
      ++c->ops_run;
      // Window membership by completion time, as bench_ext_multicore counts;
      // latency from the call's own SubmitCall.
      if (c->tally.Finish(submitted[i], done, ok, done >= from) && ok) {
        c->submit_to_flush_ns.push_back(flushed - submitted[i]);
        c->flush_to_complete_ns.push_back(done - flushed);
      }
    }
    // Pacing controller of bench_ext_multicore: track the burst's service
    // time minus one mopping-up sweep (~2 us) with an EWMA biased downward.
    constexpr sim::Time kSweepCostNs = 2000;
    const sim::Time measured = eng.now() - flushed;
    const sim::Time target = measured > kSweepCostNs ? measured - kSweepCostNs : 0;
    pace = (7 * pace + target) / 8;
    pace = pace > 200 ? pace - 200 : 0;
  }
}

RepResult RunEchoWindow64(const RepContext& ctx) {
  const sim::Time from = sim::Millis(1);
  const sim::Time to = ctx.quick ? sim::Millis(2) : sim::Millis(6);
  RepResult rep;
  sim::Engine engine;
  std::optional<SetupPhase> phase;
  phase.emplace(rep, ctx, "setup.fabric");
  rdma::FabricConfig fc;
  fc.seed = ctx.seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kEchoClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }

  phase.emplace(rep, ctx, "setup.server");
  rfp::ServerOptions server_options;
  server_options.multicore = true;
  rfp::RpcServer server(fabric, server_node, kEchoWorkers, server_options);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> request,
                               std::span<std::byte> out) -> rfp::HandlerResult {
    for (size_t i = 0; i < kEchoBytes; ++i) {
      out[i] = EchoByte(request, i);
    }
    return rfp::HandlerResult{kEchoBytes, kEchoProcessNs};
  });

  phase.emplace(rep, ctx, "setup.clients");
  rfp::RfpOptions options;
  options.window = kEchoWindow;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.coalesced_fetch = true;
  options.max_message_bytes = kEchoBytes;
  options.fetch_backoff_initial_ns = 1000;
  options.fetch_backoff_max_ns = 8000;
  Cluster cluster{engine, fabric, server_node, client_nodes, server, {}, kEchoClients,
                  from, to, {}};
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  for (int t = 0; t < kEchoClients; ++t) {
    rfp::Channel* channel = server.AcceptChannel(
        *client_nodes[static_cast<size_t>(t % kEchoClientNodes)], options, t % kEchoWorkers);
    cluster.channels.push_back(channel);
    stubs.push_back(std::make_unique<rfp::RpcClient>(channel));
  }
  server.Start();
  std::vector<EchoCounters> counters(kEchoClients);
  uint64_t next_op = 0;
  for (int t = 0; t < kEchoClients; ++t) {
    EchoCounters& c = counters[static_cast<size_t>(t)];
    c.helpers = HelperClock(ctx.spans != nullptr);
    engine.Spawn(EchoDriver(engine, stubs[static_cast<size_t>(t)].get(), from, to, ctx.spans,
                            static_cast<uint32_t>(t), &next_op, &c));
  }
  cluster.Watch();
  phase.reset();

  const auto completed = [&counters] {
    uint64_t n = 0;
    for (const EchoCounters& c : counters) {
      n += c.tally.completed_run;
    }
    return n;
  };
  if (!TimedRun(engine, to, ctx, rep, completed)) {
    return rep;
  }

  rep.measure_s = sim::ToSeconds(to - from);
  std::vector<int64_t> to_flush, to_complete;
  for (const EchoCounters& c : counters) {
    c.tally.MergeInto(rep);
    to_flush.insert(to_flush.end(), c.submit_to_flush_ns.begin(), c.submit_to_flush_ns.end());
    to_complete.insert(to_complete.end(), c.flush_to_complete_ns.begin(),
                       c.flush_to_complete_ns.end());
    rep.helper_ns += c.helpers.ns();
    rep.helper_ops += c.ops_run;
  }
  cluster.Attribute(static_cast<uint64_t>(rep.latency_ns.size()), rep);
  rep.layer["rfp.submit_to_flush_p50_us"] = QuantileUs(to_flush, 0.50);
  rep.layer["rfp.flush_to_complete_p50_us"] = QuantileUs(to_complete, 0.50);
  server.Stop();
  return rep;
}

// ---- ud_churn -------------------------------------------------------------------------
//
// Connection churn on the pooled UD tier: 32 endpoints on 4 client nodes
// against 4 server UD QPs; each endpoint plays logical clients back to back
// (connect -> 4 x 16 B echo -> disconnect). One op = one logical client.

constexpr uint16_t kUdEcho = 1;
constexpr int kUdClientNodes = 4;
constexpr int kUdEndpoints = 32;
constexpr int kUdServerThreads = 2;
constexpr int kUdQps = 4;
constexpr int kUdCallsPerSession = 4;
constexpr size_t kUdPayloadBytes = 16;

struct UdCounters {
  OpTally tally;
  std::vector<int64_t> connect_ns;
  std::vector<int64_t> call_ns;
  std::vector<int64_t> disconnect_ns;
  HelperClock helpers{false};
  uint64_t sessions_run = 0;
  bool done = false;
};

sim::Task<void> UdDriver(sim::Engine& eng, conn::PooledClient* client, sim::Time from,
                         sim::Time to, SpanLog* spans, uint32_t track, uint64_t* next_op,
                         UdCounters* c) {
  std::vector<std::byte> payload(kUdPayloadBytes);
  std::vector<std::byte> resp(64);
  uint64_t session = 0;
  while (eng.now() < to) {
    ++session;
    const uint64_t op_id = ++*next_op;
    const sim::Time start = eng.now();
    const int64_t parent = OpenSpan(spans, "op", start, -1, op_id, track);
    sim::Time phase_ns[2 + kUdCallsPerSession] = {};
    bool ok = true;
    try {
      sim::Time t0 = eng.now();
      int64_t s = OpenSpan(spans, "conn.Connect", t0, parent, op_id, track);
      co_await client->Connect();
      CloseSpan(spans, s, eng.now());
      phase_ns[0] = eng.now() - t0;
      for (int k = 0; k < kUdCallsPerSession; ++k) {
        c->helpers([&] {
          const uint64_t tag = sim::Mix64((uint64_t{track} << 40) ^ (session << 4) ^
                                          static_cast<uint64_t>(k));
          for (size_t b = 0; b < kUdPayloadBytes; ++b) {
            payload[b] = static_cast<std::byte>(static_cast<uint8_t>(tag >> (8 * (b % 8))) ^ b);
          }
        });
        t0 = eng.now();
        s = OpenSpan(spans, "conn.Call", t0, parent, op_id, track);
        const size_t got = co_await client->Call(kUdEcho, payload, resp);
        CloseSpan(spans, s, eng.now());
        phase_ns[1 + k] = eng.now() - t0;
        ok = ok && got == kUdPayloadBytes && c->helpers([&] {
               return std::memcmp(resp.data(), payload.data(), kUdPayloadBytes) == 0;
             });
      }
      t0 = eng.now();
      s = OpenSpan(spans, "conn.Disconnect", t0, parent, op_id, track);
      co_await client->Disconnect();
      CloseSpan(spans, s, eng.now());
      phase_ns[1 + kUdCallsPerSession] = eng.now() - t0;
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok && client->connected()) {
      co_await client->Disconnect();
    }
    const sim::Time end = eng.now();
    CloseSpan(spans, parent, end);
    ++c->sessions_run;
    if (c->tally.Finish(start, end, ok, start >= from && end <= to) && ok) {
      c->connect_ns.push_back(phase_ns[0]);
      for (int k = 0; k < kUdCallsPerSession; ++k) {
        c->call_ns.push_back(phase_ns[1 + k]);
      }
      c->disconnect_ns.push_back(phase_ns[1 + kUdCallsPerSession]);
    }
  }
  c->done = true;
}

RepResult RunUdChurn(const RepContext& ctx) {
  const sim::Time from = sim::Millis(1);
  const sim::Time to = ctx.quick ? sim::Millis(4) : sim::Millis(37);
  RepResult rep;
  sim::Engine engine;
  std::optional<SetupPhase> phase;
  phase.emplace(rep, ctx, "setup.fabric");
  rdma::FabricConfig fc;
  fc.seed = ctx.seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");

  phase.emplace(rep, ctx, "setup.server");
  rfp::RpcServer rpc(fabric, server_node, kUdServerThreads);
  rpc.RegisterHandler(kUdEcho, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                                  std::span<std::byte> out) {
    std::memcpy(out.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
  conn::PooledOptions popts;
  popts.qps = kUdQps;
  conn::PooledServer server(fabric, rpc, popts);
  server.Start();

  phase.emplace(rep, ctx, "setup.clients");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kUdClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  Cluster cluster{engine, fabric, server_node, client_nodes, rpc, {}, kUdEndpoints, from, to, {}};
  std::vector<std::unique_ptr<conn::PooledClient>> endpoints;
  std::vector<UdCounters> counters(kUdEndpoints);
  uint64_t next_op = 0;
  for (int e = 0; e < kUdEndpoints; ++e) {
    endpoints.push_back(std::make_unique<conn::PooledClient>(
        fabric, *client_nodes[static_cast<size_t>(e % kUdClientNodes)], server, popts));
    UdCounters& c = counters[static_cast<size_t>(e)];
    c.helpers = HelperClock(ctx.spans != nullptr);
    engine.Spawn(UdDriver(engine, endpoints.back().get(), from, to, ctx.spans,
                          static_cast<uint32_t>(e), &next_op, &c));
  }
  cluster.Watch();
  phase.reset();

  const auto completed = [&counters] {
    uint64_t n = 0;
    for (const UdCounters& c : counters) {
      n += c.tally.completed_run;
    }
    return n;
  };
  if (!TimedRun(engine, to, ctx, rep, completed)) {
    return rep;
  }
  rep.measure_s = sim::ToSeconds(to - from);
  // The window's tally is final at `to`: sessions still running end later.
  uint64_t window_ops = 0;
  for (const UdCounters& c : counters) {
    window_ops += c.tally.latency_ns.size();
  }
  cluster.Attribute(window_ops, rep);

  // Drain (untimed): every endpoint finishes its session, so the cid table
  // must end empty.
  const auto all_done = [&counters] {
    return std::all_of(counters.begin(), counters.end(),
                       [](const UdCounters& c) { return c.done; });
  };
  for (int i = 0; i < 1000 && !all_done(); ++i) {
    engine.RunUntil(engine.now() + sim::Micros(100));
  }
  std::vector<int64_t> connect_ns, call_ns, disconnect_ns;
  for (const UdCounters& c : counters) {
    c.tally.MergeInto(rep);
    connect_ns.insert(connect_ns.end(), c.connect_ns.begin(), c.connect_ns.end());
    call_ns.insert(call_ns.end(), c.call_ns.begin(), c.call_ns.end());
    disconnect_ns.insert(disconnect_ns.end(), c.disconnect_ns.begin(), c.disconnect_ns.end());
    rep.helper_ns += c.helpers.ns();
    rep.helper_ops += c.sessions_run;
  }
  uint64_t calls = 0, retransmits = 0, duplicates = 0;
  for (const auto& ep : endpoints) {
    calls += ep->stats().calls;
    retransmits += ep->stats().retransmits;
    duplicates += ep->stats().duplicates;
  }
  auto& m = rep.layer;
  m["conn.connect_p50_us"] = QuantileUs(connect_ns, 0.50);
  m["conn.call_p50_us"] = QuantileUs(call_ns, 0.50);
  m["conn.disconnect_p50_us"] = QuantileUs(disconnect_ns, 0.50);
  m["conn.retransmits_per_call"] =
      Ratio(static_cast<double>(retransmits), static_cast<double>(calls));
  m["conn.duplicates"] = static_cast<double>(duplicates);
  // -1 flags endpoints that never finished their last session.
  m["conn.live_connections_end"] =
      all_done() ? static_cast<double>(server.live_connections()) : -1.0;
  server.Stop();
  rpc.Stop();
  return rep;
}

// ---- Runs and reports -------------------------------------------------------------

struct Workload {
  const char* name;
  RepResult (*run)(const RepContext&);
  // Virtual time host-only repetitions run to: short enough that a run
  // gathers tens of samples of every host slice.
  sim::Time host_window;
};

const Workload kWorkloads[] = {
    {"kv_read95", [](const RepContext& ctx) { return RunKv(KvRead95(), ctx); }, sim::Millis(12)},
    {"echo_window64", RunEchoWindow64, sim::Millis(6)},
    {"kv_zerocopy_write50",
     [](const RepContext& ctx) { return RunKv(KvZeroCopyWrite50(), ctx); }, sim::Millis(6)},
    {"ud_churn", RunUdChurn, sim::Millis(10)},
};

// Metric catalog: BENCHMARK.json's end_to_end and per_layer lists, in order.
struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput_mops", "Mop/s"}, {"latency_p50_us", "us"},      {"latency_p999_us", "us"},
    {"success_rate", "ratio"},    {"host_ops_per_s", "op/s"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.server_core_util_max", "ratio"},
    {"sim.client_busy_frac", "ratio"},
    {"rdma.server_inbound_ops_per_op", "count"},
    {"rdma.server_inbound_util", "ratio"},
    {"rdma.server_outbound_ops_per_op", "count"},
    {"rdma.server_issue_util", "ratio"},
    {"rdma.server_issue_wait_p99_ns", "ns"},
    {"rdma.client_issue_util_max", "ratio"},
    {"rdma.client_issue_wait_p99_ns", "ns"},
    {"rdma.registrations_delta", "count"},
    {"rdma.server_registered_mb", "MB"},
    {"rdma.live_qps", "count"},
    {"rfp.round_trips_per_call", "count"},
    {"rfp.fetch_reads_per_call", "count"},
    {"rfp.failed_fetch_ratio", "ratio"},
    {"rfp.extra_fetches_per_call", "count"},
    {"rfp.reply_pushes_per_call", "count"},
    {"rfp.switches_to_reply", "count"},
    {"rfp.retries_per_call_p99", "count"},
    {"rfp.batch_occupancy_mean", "count"},
    {"rfp.coalesced_slots_per_fetch", "count"},
    {"rfp.submit_to_flush_p50_us", "us"},
    {"rfp.flush_to_complete_p50_us", "us"},
    {"rfp.channel_steals", "count"},
    {"rfp.malformed_requests", "count"},
    {"kv.get_p50_us", "us"},
    {"kv.get_p999_us", "us"},
    {"kv.put_p50_us", "us"},
    {"kv.put_p999_us", "us"},
    {"kv.miss_ratio", "ratio"},
    {"kv.cow_puts_per_put", "ratio"},
    {"kv.preload_host_s", "s"},
    {"mem.pool_allocs_per_op", "count"},
    {"mem.pool_in_use_mb", "MB"},
    {"mem.mr_reuses", "count"},
    {"mem.registrations", "count"},
    {"conn.connect_p50_us", "us"},
    {"conn.call_p50_us", "us"},
    {"conn.disconnect_p50_us", "us"},
    {"conn.retransmits_per_call", "ratio"},
    {"conn.duplicates", "count"},
    {"conn.live_connections_end", "count"},
    {"workload.gen_host_ns_per_op", "ns"},
    {"workload.latency_samples", "count"},
    {"workload.error_rate", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) {
    total += x;
  }
  return total;
}

// Host rate over the first `slices` host slices: the count `done` reached by
// their end, over the sum of each slice's fastest repetition. Other tenants
// of a shared machine only ever slow the simulator down, in phases of a
// second or so, so the per-slice minimum is the steadiest estimate of its
// own cost.
double HostRate(const std::vector<RepResult>& reps, size_t slices,
                std::vector<uint64_t> RepResult::*done) {
  double seconds = 0;
  for (size_t i = 0; i < slices; ++i) {
    double best = reps.front().slice_cpu_s[i];
    for (const RepResult& r : reps) {
      best = std::min(best, r.slice_cpu_s[i]);
    }
    seconds += best;
  }
  return Ratio(static_cast<double>((reps.front().*done)[slices - 1]), seconds);
}

// True when two repetitions did the same work in every host slice both ran.
bool SameSlices(const RepResult& a, const RepResult& b) {
  const size_t n = std::min(a.slice_ops.size(), b.slice_ops.size());
  return std::equal(a.slice_ops.begin(), a.slice_ops.begin() + static_cast<std::ptrdiff_t>(n),
                    b.slice_ops.begin()) &&
         std::equal(a.slice_events.begin(),
                    a.slice_events.begin() + static_cast<std::ptrdiff_t>(n),
                    b.slice_events.begin());
}

// The virtual-time outcome of a repetition, compared across repetitions.
bool SameVirtualResult(const RepResult& a, const RepResult& b) {
  return a.attempted == b.attempted && a.failed == b.failed &&
         a.completed_run == b.completed_run && a.latency_ns == b.latency_ns &&
         a.layer == b.layer;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  int reps = 0;  // 0 = repeat until `seconds`
  bool quick = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rfp_perfbench: %s\n"
               "usage: rfp_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
               "                     [--trace-out PATH] [--reps N] [--quick] [--check strict]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) {
          o.workload = &w;
        }
      }
      if (o.workload == nullptr) {
        Usage(("unknown workload " + name).c_str());
      }
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--reps") {
      o.reps = std::stoi(value());
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--check") {
      const std::string mode = value();
      if (mode != "strict") {
        Usage("--check takes only 'strict'");
      }
      check::SetMode(check::Mode::kStrict);
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload == nullptr) {
    Usage("--workload is required");
  }
  return o;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first->name, metrics[i].second, metrics[i].first->unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  const Workload& w = *opt.workload;
  SpanLog spans;    // the full traced repetition's, written at exit
  SpanLog scratch;  // host-only traced repetitions'
  const RepContext full{opt.seed, opt.quick, nullptr, 0};
  const RepContext full_traced{opt.seed, opt.quick, &spans, 0};
  const RepContext host{opt.seed, opt.quick, nullptr, w.host_window};
  const RepContext host_traced{opt.seed, opt.quick, &scratch, w.host_window};

  // The first two untraced repetitions and the first traced one run the
  // whole window; later ones (with --reps, none) are host-only. Trace mode
  // alternates untraced and traced repetitions, so both see the same host
  // conditions.
  std::vector<RepResult> plain;
  std::vector<RepResult> with_trace;
  double peak_rss_mb = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const bool use_trace = opt.trace && i % 2 == 1;
    std::vector<RepResult>& reps = use_trace ? with_trace : plain;
    const bool whole = opt.reps > 0 || reps.size() < (use_trace ? 1u : 2u);
    scratch.Clear();
    try {
      RepResult r = w.run(whole ? (use_trace ? full_traced : full) : (use_trace ? host_traced : host));
      if (i == 0) {
        peak_rss_mb = PeakRssMb();  // one workload instance's high-water mark
      }
      std::fprintf(stderr, "rep %d%s%s: setup %.4f s, RunUntil %.3f s (CPU)\n", i,
                   use_trace ? " traced" : "", r.host_only ? " host-only" : "", r.setup_s,
                   Sum(r.slice_cpu_s));
      reps.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rfp_perfbench: %s aborted: %s\n", w.name, e.what());
      return 1;
    }
    if (opt.reps > 0 ? plain.size() + with_trace.size() >= static_cast<size_t>(opt.reps)
                     : (Seconds(Clock::now() - start) >= opt.seconds && plain.size() >= 3 &&
                        (!opt.trace || with_trace.size() >= 2))) {
      break;
    }
  }

  const RepResult& first = plain.front();
  bool deterministic = true;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t host_slices = first.slice_cpu_s.size();
  for (const auto* reps : {&plain, &with_trace}) {
    for (const RepResult& r : *reps) {
      deterministic = deterministic && SameSlices(first, r) &&
                      (r.host_only || SameVirtualResult(first, r));
      correct = correct && r.wrong_anywhere == 0;
      host_slices = std::min(host_slices, r.slice_cpu_s.size());
      if (!r.host_only) {
        attempted += r.attempted;
        failed += r.failed;
      }
    }
  }
  if (!deterministic) {
    std::fprintf(stderr, "rfp_perfbench: %s: repetitions at seed %llu disagree in virtual time\n",
                 w.name, static_cast<unsigned long long>(opt.seed));
  }
  if (first.wrong_anywhere != 0) {
    std::fprintf(stderr, "rfp_perfbench: %s: %llu wrong or failed responses per repetition\n",
                 w.name, static_cast<unsigned long long>(first.wrong_anywhere));
  }
  correct = correct && deterministic && attempted > 0 && !first.latency_ns.empty();
  // Counters that must read 0 whenever the layer is healthy.
  for (const char* key :
       {"rdma.registrations_delta", "rfp.malformed_requests", "conn.live_connections_end"}) {
    const auto it = first.layer.find(key);
    if (it != first.layer.end() && it->second != 0) {
      std::fprintf(stderr, "rfp_perfbench: %s: %s = %g, must be 0\n", w.name, key, it->second);
      correct = false;
    }
  }

  const double host_ops = HostRate(plain, host_slices, &RepResult::slice_ops);
  std::vector<double> setup, preload;
  for (const RepResult& r : plain) {
    setup.push_back(r.setup_s);
    preload.push_back(r.preload_s);
  }
  const size_t samples = first.latency_ns.size();
  std::fprintf(stderr,
               "%s seed %llu: %zu untraced + %zu traced repetitions, %zu latency samples "
               "(%zu beyond p99.9), %zu host slices\n",
               w.name, static_cast<unsigned long long>(opt.seed), plain.size(), with_trace.size(),
               samples, samples - static_cast<size_t>(std::ceil(0.999 * static_cast<double>(samples))),
               host_slices);

  std::vector<std::pair<const MetricDef*, double>> out;
  if (!opt.trace) {
    const double values[] = {
        static_cast<double>(first.latency_ns.size()) / first.measure_s / 1e6,
        QuantileUs(first.latency_ns, 0.50),
        QuantileUs(first.latency_ns, 0.999),
        Ratio(static_cast<double>(first.attempted - first.failed),
              static_cast<double>(first.attempted)),
        host_ops,
        Median(setup),
        peak_rss_mb,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    const RepResult& t = with_trace.front();
    std::map<std::string, double> m = t.layer;
    m["sim.events_per_host_s"] = HostRate(plain, host_slices, &RepResult::slice_events);
    m["kv.preload_host_s"] = Median(preload);
    m["workload.gen_host_ns_per_op"] = Ratio(t.helper_ns, static_cast<double>(t.helper_ops));
    m["workload.latency_samples"] = static_cast<double>(t.latency_ns.size());
    m["workload.error_rate"] =
        Ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted));
    m["trace.overhead_frac"] =
        1.0 - Ratio(HostRate(with_trace, host_slices, &RepResult::slice_ops), host_ops);
    for (const MetricDef& def : kPerLayer) {
      out.emplace_back(&def, m.count(def.name) != 0 ? m[def.name] : 0.0);
    }
    std::printf("binding_layer %s: %s\n", w.name, t.binding.c_str());
    std::printf("trace spans %s: %zu\n", w.name, spans.size());
    if (!opt.trace_out.empty() && !spans.Write(opt.trace_out)) {
      std::fprintf(stderr, "rfp_perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  PrintResult(correct, attempted, failed, out);
  return correct ? 0 : 1;
}
