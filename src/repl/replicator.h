// Primary-backup replication over a dedicated RFP channel
// (docs/replication.md).
//
// Two halves:
//
//  * Replicator — runs against the PRIMARY JakiroServer. It installs the
//    server's replication hook, so every accepted PUT/DELETE appends a
//    sequenced record to the ReplLog; a shipper actor drains the log over a
//    pipelined channel to the backup's thread-0 worker (Submit/Flush window,
//    doorbell-batched). In sync mode the hook suspends the handler until the
//    backup acked the record's LSN — the client reply publishes only after
//    the op is on both nodes. In async mode the hook returns immediately and
//    producers stall only past a bounded lag watermark.
//
//  * ReplSink — runs against the BACKUP JakiroServer. It registers the
//    replication stream handlers (append, snapshot chunk, health probe) on
//    the backup's RPC server — ungated ids, dispatched even while the epoch
//    gate rejects client traffic. Appends are queued and acknowledged; an
//    apply actor drains the queue into the backup's partitions in LSN order.
//    Records still queued when the failover coordinator promotes the backup
//    are replayed synchronously first (repl.replayed) — acked therefore
//    always implies applied-before-serving.
//
// Backup bootstrap is snapshot-then-tail: AttachBackup sweeps every primary
// partition with BucketTable::SnapshotChunk (begin marker, chunk messages,
// end marker; the begin marker clears any partial state from an aborted
// earlier attempt), while mutations that land between chunks keep appending
// to the log and ship after the sweep — replay is idempotent upsert, so the
// overlap is harmless. The shipper pauses while a snapshot is in flight so
// chunks and appends never interleave on the channel.
//
// Crash model: the shipper and the attach sweep act on behalf of primary
// CPU, so both stall while every primary worker is crashed (a whole-node
// kill must not be masked by a ghost shipper). A backup that answers an
// append while it is itself serving as primary rejects it — the fencing
// that detaches a resurrected old primary's shipper.

#ifndef SRC_REPL_REPLICATOR_H_
#define SRC_REPL_REPLICATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/kv/jakiro.h"
#include "src/obs/catalog.h"
#include "src/repl/log.h"
#include "src/repl/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/signal.h"
#include "src/sim/stats.h"

namespace repl {

// Replication-stream RPC ids; clear of the kv ids (1-4) and never gated.
constexpr uint16_t kRpcReplAppend = 240;
constexpr uint16_t kRpcReplSnapshot = 241;
constexpr uint16_t kRpcReplProbe = 242;

// Snapshot message: [u8 flags][u16 count][encoded records x count], where
// records carry lsn 0 / rpc_id kRpcPut. Begin clears the backup's state;
// end marks the bootstrap complete (the backup becomes promotable).
constexpr uint8_t kSnapBegin = 1;
constexpr uint8_t kSnapEnd = 2;

// Registers the kRpcReplProbe handler (1-byte liveness answer) on `rpc`;
// must run before the server starts. ReplSink installs it on the backup as
// part of the stream handlers; the cluster installs it on the primary too,
// since that is the node whose death the coordinator watches for.
void RegisterProbeHandler(rfp::RpcServer& rpc);

// Stats catalogs (src/obs/catalog.h); every entry registers only when it fired.
#define REPL_SINK_STATS(X)                                                              \
  X(counter, applied, "repl.applied", self, "records applied by the apply actor")       \
  X(counter, replayed, "repl.replayed", self, "records replayed at promotion")          \
  X(counter, snapshot_items, "repl.snapshot_items", self, "snapshot entries installed") \
  X(counter, rejected_appends, "repl.rejected_appends", self, "appends fenced off while serving")
#define REPL_REPLICATOR_STATS(X)                                                         \
  X(counter, shipped, "repl.shipped", self, "records acked by the backup")               \
  X(counter, ship_failures, "repl.ship_failures", self, "failed ship or snapshot calls") \
  X(counter, attach_attempts, "repl.attach_attempts", self, "AttachBackup sweeps begun") \
  X(counter, sync_waits, "repl.sync_waits", self, "sync-mode handler suspensions")       \
  X(histogram, lag, "repl.lag", self, "log lag sampled at every append")

class ReplSink {
 public:
  struct Stats { OBS_STATS(Stats, REPL_SINK_STATS) };

  // Registers the stream handlers on `server`'s RPC server; must run before
  // the server starts.
  ReplSink(kv::JakiroServer& server, ReplOptions options);

  // Flushes Stats labeled {node}.
  ~ReplSink();

  ReplSink(const ReplSink&) = delete;
  ReplSink& operator=(const ReplSink&) = delete;

  // Spawns the apply actor; StopApply halts it (promotion does this after
  // draining the tail, so a promoted backup's partitions are mutated only by
  // its own handlers from then on).
  void Start();
  void StopApply() { apply_stop_ = true; }

  // Applies every queued record now, in LSN order; returns how many
  // (counted as repl.replayed). The promotion path.
  uint64_t DrainTail();

  // The snapshot sweep has completed (end marker seen) and the backup is
  // promotable. An aborted re-bootstrap (begin marker) clears it again.
  bool bootstrapped() const { return bootstrapped_; }

  uint64_t applied() const { return stats_.applied; }
  uint64_t replayed() const { return stats_.replayed; }
  uint64_t snapshot_items() const { return stats_.snapshot_items; }
  uint64_t rejected_appends() const { return stats_.rejected_appends; }
  size_t queued() const { return queue_.size(); }
  uint64_t last_lsn() const { return last_lsn_; }

 private:
  void RegisterHandlers();
  void ApplyRecord(const Record& record);
  sim::Task<void> ApplyLoop();

  kv::JakiroServer& server_;
  ReplOptions options_;
  std::deque<Record> queue_;  // received, acked, not yet applied
  bool bootstrapped_ = false;
  bool apply_stop_ = false;
  bool apply_running_ = false;
  Stats stats_;
  uint64_t last_lsn_ = 0;
};

class Replicator {
 public:
  struct Stats { OBS_STATS(Stats, REPL_REPLICATOR_STATS) };

  enum class State : uint8_t { kDetached, kSnapshotting, kAttached };

  // Opens the replication channel (primary node -> backup thread 0). Both
  // servers must not have started yet. Validates `options`.
  Replicator(kv::JakiroServer& primary, kv::JakiroServer& backup, ReplOptions options);

  // Flushes Stats labeled {node} by the primary.
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  // Installs the primary's replication hook and spawns the shipper.
  void Start();
  void Stop();

  // Snapshot-then-tail bootstrap; returns with state() == kAttached on
  // success, kDetached when the sweep was aborted (primary crashed
  // mid-transfer, shipping failure). No-op unless currently detached.
  sim::Task<void> AttachBackup();

  // Stops shipping and releases every suspended hook waiter un-acked (their
  // replies publish; the backup link is gone, so sync guarantees end here).
  // Promotion detaches the old primary's replicator.
  void Detach();

  State state() const { return state_; }
  bool attached() const { return state_ == State::kAttached; }
  bool detached() const { return state_ == State::kDetached; }
  const ReplLog& log() const { return log_; }
  const ReplOptions& options() const { return options_; }

  uint64_t shipped() const { return stats_.shipped; }
  uint64_t ship_failures() const { return stats_.ship_failures; }
  uint64_t attach_attempts() const { return stats_.attach_attempts; }
  const sim::Histogram& lag_histogram() const { return stats_.lag; }

 private:
  sim::Task<void> OnMutation(uint16_t rpc_id, std::span<const std::byte> key,
                             std::span<const std::byte> value);
  sim::Task<void> ShipLoop();
  // One snapshot message (flags + count + already-encoded records).
  sim::Task<bool> SendSnapshot(uint8_t flags, std::span<const std::byte> body, uint16_t count);
  // Every primary worker is crashed: the node is dark, nothing ships.
  bool PrimaryDark() const;

  kv::JakiroServer& primary_;
  kv::JakiroServer& backup_;
  ReplOptions options_;
  sim::Engine& engine_;
  rfp::Channel* channel_ = nullptr;
  std::unique_ptr<rfp::RpcClient> stub_;
  ReplLog log_;
  sim::Notifier work_;   // wakes the shipper (appends, state changes)
  sim::Notifier acked_;  // wakes hook waiters (acks, detach)
  State state_ = State::kDetached;
  bool stop_ = false;
  Stats stats_;
};

}  // namespace repl

#endif  // SRC_REPL_REPLICATOR_H_
