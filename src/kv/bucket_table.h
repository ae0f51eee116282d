// Jakiro's in-memory key-value structure (paper Section 4.1):
// a fixed array of buckets, eight 8-byte slots per bucket (one cache line),
// strict per-bucket LRU eviction, and EREW partitioning — each server
// thread owns one BucketTable instance and nobody else touches it.
//
// Two storage modes. Heap mode (the original): values live in plain
// std::vector entries and GETs copy through the response ring. Pool mode
// (the two-argument ctor): values live in registered slabs drawn from the
// node's shared mem::Pool, so a GET handler can answer zero-copy — GetPinned
// hands out the entry's (rkey, offset, len, epoch) plus a pin that keeps the
// registered bytes alive until the client's fetch is proven consumed. A PUT
// that lands while an entry is pinned copies-on-write into a fresh cell
// (the old span is freed when the last pin drops), never overwriting bytes a
// client may still READ; docs/memory.md spells out the lifetime rules.

#ifndef SRC_KV_BUCKET_TABLE_H_
#define SRC_KV_BUCKET_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/mem/pool.h"
#include "src/obs/catalog.h"
#include "src/rdma/node.h"

namespace explore {
class HistoryRecorder;
}

namespace kv {

// Partition stats catalog (src/obs/catalog.h); ~JakiroServer flushes the sum.
#define KV_BUCKET_TABLE_STATS(X)                                                           \
  X(counter, hits, "kv.store.hits", always, "GETs that found the key")                     \
  X(counter, misses, "kv.store.misses", always, "GETs that did not")                       \
  X(counter, inserts, "kv.store.inserts", always, "PUTs of a new key")                     \
  X(counter, updates, "kv.store.updates", always, "PUTs overwriting a key")                \
  X(counter, evictions, "kv.store.evictions", always, "entries evicted from full buckets") \
  X(counter, erases, "kv.store.erases", always, "keys erased")                             \
  /* Pool mode: PUTs that hit a pinned entry and had to allocate a fresh */                \
  /* cell instead of overwriting in place (the zero-copy safety path). */                  \
  X(counter, cow_puts, "kv.store.cow_puts", always, "copy-on-write PUTs")

class BucketTable {
 public:
  static constexpr int kSlotsPerBucket = 8;

  struct Stats { OBS_STATS(Stats, KV_BUCKET_TABLE_STATS) };

  // A pinned view of a pool-backed entry, for zero-copy GET responses. The
  // coordinates name the value inside the node's registered memory; `pin`
  // keeps the cell (and its span) alive even if a later PUT or eviction
  // replaces the entry — the span returns to the pool when the last pin
  // drops. `epoch` counts overwrites of the key, so a descriptor can be
  // told apart from a reused cell.
  struct PinnedValue {
    uint32_t rkey = 0;
    size_t offset = 0;
    uint32_t len = 0;
    uint32_t epoch = 0;
    std::shared_ptr<const void> pin;
  };

  // `num_buckets` is rounded up to a power of two. Heap mode: values in
  // plain vectors, GetPinned unavailable.
  explicit BucketTable(size_t num_buckets);

  // Pool mode: values live in registered slabs from `node`'s shared
  // mem::Pool (created on first use), enabling GetPinned / zero-copy GET.
  BucketTable(size_t num_buckets, rdma::Node& node);

  BucketTable(const BucketTable&) = delete;
  BucketTable& operator=(const BucketTable&) = delete;
  BucketTable(BucketTable&&) = default;

  // Returns a view of the stored value (valid until the next mutation) and
  // refreshes the entry's LRU position.
  std::optional<std::span<const std::byte>> Get(std::span<const std::byte> key);

  // Pool mode only (throws std::logic_error otherwise): like Get — refreshes
  // LRU, counts hit/miss — but returns the entry's registered coordinates
  // plus a pin instead of a byte view.
  std::optional<PinnedValue> GetPinned(std::span<const std::byte> key);

  // Inserts or overwrites. When the bucket is full, the least recently used
  // slot in that bucket is evicted (strict LRU, paper Section 4.1).
  void Put(std::span<const std::byte> key, std::span<const std::byte> value);

  // Removes the key; returns whether it was present.
  bool Erase(std::span<const std::byte> key);

  // Drops every entry (stats and mode are kept). Used when a backup
  // re-bootstraps: an aborted snapshot transfer leaves partial state that a
  // fresh sweep must not merge with. Pool-mode cells honor the usual
  // deferred-free rule — a pinned cell's span returns to the pool when its
  // last pin drops.
  void Clear();

  // One live (key, value) pair copied out of the table by SnapshotChunk.
  struct SnapshotItem {
    std::vector<std::byte> key;
    std::vector<std::byte> value;
  };

  // Cursor-driven snapshot sweep for backup bootstrap (docs/replication.md):
  // appends every live pair in buckets [cursor, cursor + max_buckets) to
  // `out` and returns the next cursor (num_buckets() = sweep complete).
  // Values are copied, so the chunk stays stable while it is shipped; the
  // sweep does not touch LRU state or hit/miss counters, and mutations
  // between chunks are legal — the replication log replays whatever raced
  // the sweep (snapshot-then-tail, not a frozen table).
  size_t SnapshotChunk(size_t cursor, size_t max_buckets,
                       std::vector<SnapshotItem>* out) const;

  size_t size() const { return size_; }
  size_t num_buckets() const { return buckets_.size(); }
  const Stats& stats() const { return stats_; }
  bool pool_backed() const { return pool_ != nullptr; }

  // TEST ONLY: disables the copy-on-write pin check, modelling a buggy store
  // that overwrites a pinned entry in place. Exists so the race-detector
  // corpus can prove the checker catches exactly that bug
  // (tests/check/ zero-copy reuse case); never set in production paths.
  void set_unsafe_inplace_put(bool unsafe) { unsafe_inplace_put_ = unsafe; }

  // Attaches (or detaches, with nullptr) a history recorder: Get/GetPinned/
  // Put/Erase report store-side apply events (explore::ApplyEvent) used to
  // diagnose linearizability failures. The recorder must outlive this table
  // or be detached first.
  void set_history_recorder(explore::HistoryRecorder* recorder) { recorder_ = recorder; }

 private:
  // 8 bytes, like the paper's slot: a tag for fast rejection, the LRU rank
  // within the bucket, and the index of the out-of-line entry.
  struct Slot {
    uint16_t tag = 0;
    uint8_t lru = 0;   // 0 = most recent among used slots
    uint8_t used = 0;
    uint32_t entry = 0;
  };
  static_assert(sizeof(Slot) == 8, "slot must stay 8 bytes (bucket = cache line)");

  struct Bucket {
    std::array<Slot, kSlotsPerBucket> slots;
  };

  // Pool mode value storage: one registered span plus the reuse epoch. The
  // cell is shared between the table and any outstanding zero-copy pins; the
  // dtor returns the span to the pool, so replaced cells are freed exactly
  // when the last pin drops (deferred free, never while a client may READ).
  struct ValueCell {
    std::shared_ptr<mem::Pool> pool;
    mem::Span span;
    uint32_t len = 0;    // live bytes (<= span.size after an in-place shrink)
    uint32_t epoch = 0;  // overwrite count for this key
    ~ValueCell() {
      if (span.valid()) {
        pool->Free(span);
      }
    }
    std::span<std::byte> bytes() const { return span.mr->bytes().subspan(span.offset, len); }
  };

  struct Entry {
    std::vector<std::byte> key;
    std::vector<std::byte> value;            // heap mode
    std::shared_ptr<ValueCell> cell;         // pool mode
  };

  size_t BucketIndex(uint64_t hash) const { return hash & (buckets_.size() - 1); }
  static uint16_t Tag(uint64_t hash) { return static_cast<uint16_t>(hash >> 48); }

  // Moves slot `idx` to LRU rank 0, shifting younger slots down.
  void Touch(Bucket& bucket, int idx);

  int FindSlot(const Bucket& bucket, uint16_t tag, std::span<const std::byte> key) const;

  uint32_t AllocEntry();
  void FreeEntry(uint32_t idx);

  // Pool mode: allocates a cell, copies `value` in, and reports the CPU
  // store to the fabric's race checker (the bytes stay "dirty" until a
  // zero-copy send republishes them).
  std::shared_ptr<ValueCell> MakeCell(std::span<const std::byte> value, uint32_t epoch);
  void NoteCpuStore(const ValueCell& cell);

  std::vector<Bucket> buckets_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  size_t size_ = 0;
  Stats stats_;
  std::shared_ptr<mem::Pool> pool_;  // null = heap mode
  rdma::Node* node_ = nullptr;
  bool unsafe_inplace_put_ = false;
  explore::HistoryRecorder* recorder_ = nullptr;
};

}  // namespace kv

#endif  // SRC_KV_BUCKET_TABLE_H_
