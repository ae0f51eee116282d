// Pilaf-style server-bypass key-value store (Mitchell et al., ATC'13), the
// paper's server-bypass comparison point (Sections 2.3 and 4.3).
//
// GETs bypass the server CPU entirely: the client READs candidate Cuckoo
// slots one-sidedly, follows the winning slot's pointer with a second READ
// into the extent log, and validates CRC64 — retrying the whole lookup when
// a concurrent server-side PUT tore the entry. PUTs go through RPC in
// server-reply mode, and the server deliberately updates the extent before
// publishing the slot, holding the torn window open for a fraction of the
// PUT's process time (exactly the race Pilaf's CRCs exist to catch).

#ifndef SRC_KV_PILAF_STORE_H_
#define SRC_KV_PILAF_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/kv/cuckoo.h"
#include "src/obs/catalog.h"
#include "src/rdma/fabric.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"

namespace kv {

struct PilafConfig {
  uint64_t num_slots = 1 << 20;       // sized so benches stay <= ~75% full
  size_t extent_bytes = 256u << 20;   // bump-allocated record log
  // Server-side PUT cost: cuckoo maintenance plus a CRC64 pass over the
  // record (Pilaf computes checksums on every update).
  sim::Time put_process_ns = 1500;
  // Fraction of put_process_ns during which the extent is newer than the
  // published slot (the CRC race window).
  double race_window_fraction = 0.6;
  int max_get_retries = 64;
  int server_threads = 2;             // PUT service only; GETs never hit CPU
  rfp::RfpOptions channel_options;    // forced to server-reply in the ctor
  rfp::ServerOptions server_options;
  uint64_t seed = 0x50494c41;         // "PILA"
};

class PilafServer {
 public:
  PilafServer(rdma::Fabric& fabric, rdma::Node& node, PilafConfig config = {});

  PilafServer(const PilafServer&) = delete;
  PilafServer& operator=(const PilafServer&) = delete;

  const PilafConfig& config() const { return config_; }
  CuckooTable& table() { return table_; }
  CuckooTable::View view() const { return table_.view(); }
  rfp::RpcServer& rpc() { return rpc_; }
  rdma::Node& node() { return rpc_.node(); }

  void Start() { rpc_.Start(); }
  void Stop() { rpc_.Stop(); }

  // Loads a key-value pair without simulated time passing (test/bench
  // pre-fill). Returns false when the table is full.
  bool Preload(std::span<const std::byte> key, std::span<const std::byte> value) {
    return table_.Put(key, value);
  }

 private:
  void RegisterHandlers();

  PilafConfig config_;
  rfp::RpcServer rpc_;
  CuckooTable table_;
  sim::Mutex put_lock_;  // Cuckoo mutation is serialized on the server
};

// Stats catalog (src/obs/catalog.h).
#define KV_PILAF_CLIENT_STATS(X)                                                                 \
  X(counter, gets, "kv.store.gets", always, "GETs issued")                                       \
  X(counter, puts, "kv.store.puts", always, "PUTs issued")                                       \
  X(counter, slot_reads, "kv.pilaf.slot_reads", always, "one-sided READs of metadata slots")     \
  X(counter, extent_reads, "kv.pilaf.extent_reads", always, "one-sided READs of extent records") \
  X(counter, crc_failures, "kv.pilaf.crc_failures", always, "torn entries detected and retried") \
  X(counter, hash_misses, "kv.pilaf.hash_misses", always, "probed slots not holding the key")    \
  X(counter, retries, "kv.pilaf.retries", always, "whole-lookup retries")                        \
  X(counter, not_found, "kv.store.misses", always, "GETs that found no key")                     \
  X(histogram, get_latency, "kv.pilaf.get_latency_ns", always, "GET latency (ns)")

class PilafClient {
 public:
  struct Stats {
    OBS_STATS(Stats, KV_PILAF_CLIENT_STATS)

    double ReadsPerGet() const {
      return gets == 0 ? 0.0
                       : static_cast<double>(slot_reads + extent_reads) / static_cast<double>(gets);
    }
  };

  // `put_thread` selects which server thread serves this client's PUTs.
  PilafClient(rdma::Fabric& fabric, rdma::Node& client_node, PilafServer& server,
              int put_thread);

  // Flushes Stats into the default metrics registry ({store: pilaf, client}).
  ~PilafClient();

  // One-sided GET. Returns the value size, or nullopt when absent.
  sim::Task<std::optional<size_t>> Get(std::span<const std::byte> key,
                                       std::span<std::byte> value_out);

  // RPC PUT (server-reply, as in Pilaf).
  sim::Task<bool> Put(std::span<const std::byte> key, std::span<const std::byte> value);

  const Stats& stats() const { return stats_; }
  const sim::Histogram& get_latency() const { return stats_.get_latency; }

 private:
  std::span<std::byte> read_buf() const { return read_span_.bytes(); }

  PilafServer& server_;
  CuckooTable::View view_;
  rdma::QueuePair* qp_;  // client endpoint for one-sided READs
  std::shared_ptr<mem::Pool> pool_;
  mem::Span read_span_;  // pooled landing area for slot + extent READs
  std::unique_ptr<rfp::RpcClient> put_stub_;
  std::vector<std::byte> scratch_;
  Stats stats_;
};

}  // namespace kv

#endif  // SRC_KV_PILAF_STORE_H_
