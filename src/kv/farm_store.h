// FaRM-style key-value store (Dragojevic et al., NSDI'14), the second
// server-bypass system the paper discusses (Section 5).
//
// FaRM places entries in a chained-associative hopscotch hash table: a key
// lives within a neighborhood of H consecutive buckets of its home bucket,
// each bucket holding several slots, so a client GET is a single one-sided
// READ of the whole neighborhood — N * (slot bytes) on the wire to use one
// entry. That is the trade the paper calls out: fewer round trips than
// Pilaf, but "a lot of the bandwidth and MOPS will be wasted", with N
// usually larger than 6. PUTs go through server-reply RPC, like FaRM's
// object writes through its transaction layer.
//
// Cells are fixed-size inline records protected by a CRC64 (standing in for
// FaRM's cache-line version numbers): a reader that races a server-side
// update sees a torn cell and retries.

#ifndef SRC_KV_FARM_STORE_H_
#define SRC_KV_FARM_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/mem/pool.h"
#include "src/obs/catalog.h"
#include "src/rdma/fabric.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"

namespace kv {

struct FarmConfig {
  uint64_t num_buckets = 1 << 18;
  int slots_per_bucket = 4;    // associativity (FaRM's chained-associative
                               // scheme; keeps displacement viable past 75%)
  int neighborhood = 8;        // H: buckets fetched per GET
  uint16_t max_key_bytes = 16;
  uint16_t max_value_bytes = 64;  // cell capacity (sizes the READ)
  // Server-side PUT cost: hopscotch maintenance + CRC.
  sim::Time put_process_ns = 1200;
  double race_window_fraction = 0.6;
  int max_get_retries = 64;
  int server_threads = 2;
  rfp::RfpOptions channel_options;  // forced to server-reply in the ctor
  rfp::ServerOptions server_options;
};

// Stats catalog (src/obs/catalog.h).
#define KV_FARM_STORE_STATS(X)                                                  \
  X(counter, inserts, "kv.store.inserts", always, "PUTs of a new key")          \
  X(counter, updates, "kv.store.updates", always, "PUTs overwriting a key")     \
  X(counter, displacements, "kv.farm.displacements", always, "hopscotch moves") \
  X(counter, failed_inserts, "kv.farm.failed_inserts", always, "inserts that found no slot")

class FarmStore {
 public:
  struct DecodedCell {
    uint64_t key_hash = 0;  // 0 = empty
    uint16_t key_size = 0;
    uint16_t value_size = 0;
    uint64_t crc = 0;

    bool empty() const { return key_hash == 0; }
  };

  struct View {
    rdma::RemoteKey rkey;
    uint64_t num_buckets = 0;
    int neighborhood = 0;
    int slots_per_bucket = 0;
    size_t cell_bytes = 0;  // per slot
    // Offset of the cell array inside the pooled region the rkey names;
    // clients add it to every neighborhood offset they READ.
    uint64_t base = 0;
  };

  struct Stats { OBS_STATS(Stats, KV_FARM_STORE_STATS) };

  FarmStore(rdma::Node& node, const FarmConfig& config);

  // Flushes Stats into the default metrics registry ({store: farm, node}).
  ~FarmStore();

  FarmStore(const FarmStore&) = delete;
  FarmStore& operator=(const FarmStore&) = delete;

  View view() const;
  size_t cell_bytes() const { return cell_bytes_; }
  size_t size() const { return size_; }
  const Stats& stats() const { return stats_; }

  static constexpr size_t kCellHeaderBytes = 24;
  static DecodedCell DecodeCell(std::span<const std::byte> bytes);

  // Home bucket index for a key hash.
  uint64_t Home(uint64_t key_hash) const { return key_hash % config_.num_buckets; }

  // Total slots fetched per GET (the paper's N).
  int SlotsPerNeighborhood() const {
    return config_.neighborhood * config_.slots_per_bucket;
  }

  // ---- Server-side mutation (two-phase, like the Pilaf store) --------------

  struct PendingPut {
    uint64_t cell_index = 0;
    DecodedCell header;
  };

  std::optional<PendingPut> StageCell(std::span<const std::byte> key,
                                      std::span<const std::byte> value);
  void PublishCell(const PendingPut& pending);
  bool Put(std::span<const std::byte> key, std::span<const std::byte> value);
  std::optional<std::vector<std::byte>> Get(std::span<const std::byte> key) const;
  bool Erase(std::span<const std::byte> key);

 private:
  // Slot index = bucket * slots_per_bucket + slot.
  DecodedCell LoadCell(uint64_t slot_index) const;
  void StoreCellHeader(uint64_t slot_index, const DecodedCell& cell);
  bool KeyMatches(uint64_t slot_index, const DecodedCell& cell,
                  std::span<const std::byte> key) const;
  int64_t FindSlot(uint64_t key_hash, std::span<const std::byte> key) const;
  // Frees a slot inside the key's neighborhood via hopscotch displacement
  // (plan-then-commit); -1 when impossible.
  int64_t MakeRoomInNeighborhood(uint64_t home);

  std::span<std::byte> cells_bytes() const { return cells_span_.bytes(); }

  FarmConfig config_;
  std::string node_name_;
  size_t cell_bytes_;
  std::shared_ptr<mem::Pool> pool_;
  mem::Span cells_span_;  // pooled cell array (registered, remotely readable)
  size_t size_ = 0;
  Stats stats_;
};

class FarmServer {
 public:
  FarmServer(rdma::Fabric& fabric, rdma::Node& node, FarmConfig config = {});

  const FarmConfig& config() const { return config_; }
  FarmStore& store() { return store_; }
  FarmStore::View view() const { return store_.view(); }
  rfp::RpcServer& rpc() { return rpc_; }
  rdma::Node& node() { return rpc_.node(); }

  void Start() { rpc_.Start(); }
  void Stop() { rpc_.Stop(); }

  bool Preload(std::span<const std::byte> key, std::span<const std::byte> value) {
    return store_.Put(key, value);
  }

 private:
  void RegisterHandlers();

  FarmConfig config_;
  rfp::RpcServer rpc_;
  FarmStore store_;
  sim::Mutex put_lock_;
};

class FarmClient {
 public:
  struct Stats {
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t neighborhood_reads = 0;
    uint64_t bytes_read = 0;      // wire bytes fetched by GETs
    uint64_t bytes_useful = 0;    // key+value bytes actually consumed
    uint64_t crc_failures = 0;
    uint64_t retries = 0;
    uint64_t not_found = 0;

    double WasteFactor() const {
      return bytes_useful == 0 ? 0.0
                               : static_cast<double>(bytes_read) /
                                     static_cast<double>(bytes_useful);
    }
  };

  FarmClient(rdma::Fabric& fabric, rdma::Node& client_node, FarmServer& server, int put_thread);

  // Returns the landing buffer to the client node's pool.
  ~FarmClient();

  // One-sided GET: a single READ of the key's whole neighborhood.
  sim::Task<std::optional<size_t>> Get(std::span<const std::byte> key,
                                       std::span<std::byte> value_out);

  sim::Task<bool> Put(std::span<const std::byte> key, std::span<const std::byte> value);

  const Stats& stats() const { return stats_; }
  const sim::Histogram& get_latency() const { return get_latency_; }

 private:
  std::span<std::byte> read_buf() const { return read_span_.bytes(); }

  FarmServer& server_;
  FarmStore::View view_;
  rdma::QueuePair* qp_;
  std::shared_ptr<mem::Pool> pool_;
  mem::Span read_span_;  // pooled landing area for neighborhood READs
  std::unique_ptr<rfp::RpcClient> put_stub_;
  std::vector<std::byte> scratch_;
  Stats stats_;
  sim::Histogram get_latency_;
};

}  // namespace kv

#endif  // SRC_KV_FARM_STORE_H_
