// Crash-driven failover (docs/replication.md).
//
// The FailoverCoordinator runs on behalf of the BACKUP node. It probes the
// primary's thread-0 worker over a dedicated window-1 channel every
// probe_interval; each answered probe renews a lease. When the primary goes
// dark and the lease expires, the coordinator promotes the backup:
//
//   1. refuse if the backup never finished its snapshot bootstrap (a
//      half-copied store must not serve — the cluster stays unavailable
//      until the old primary restarts and resumes as leader);
//   2. replay the queued replication tail (repl.replayed) and stop the
//      apply actor;
//   3. advance the epoch (old + 1), report it to the fabric checker
//      (epoch-monotonicity invariant), and open the backup's gate;
//   4. demote the old primary's gate in the same step, so a restarted
//      primary rejects stale-epoch requests with a redirect to the new
//      leader — unless the unsafe_skip_demotion mutant is armed, which
//      models exactly the split-brain bug the checker exists to catch.
//
// Promotion is idempotent and gate-authoritative: racing coordinators check
// the backup's own gate, not their private flags, so the epoch advances
// exactly once no matter how many coordinators fire.

#ifndef SRC_REPL_FAILOVER_H_
#define SRC_REPL_FAILOVER_H_

#include <cstdint>
#include <memory>

#include "src/kv/jakiro.h"
#include "src/obs/catalog.h"
#include "src/repl/options.h"
#include "src/repl/replicator.h"
#include "src/rfp/rpc.h"

namespace repl {

// Stats catalog (src/obs/catalog.h); every entry registers only when it fired.
#define REPL_FAILOVER_STATS(X)                                                          \
  X(counter, promotions, "repl.promotions", self, "backup promotions")                  \
  X(counter, promotions_refused, "repl.promotions_refused", self, "promotions refused") \
  X(counter, probes, "repl.probes", self, "health probes sent")                         \
  X(counter, lease_expiries, "repl.lease_expiries", self, "primary leases that expired")

class FailoverCoordinator {
 public:
  struct Stats { OBS_STATS(Stats, REPL_FAILOVER_STATS) };

  // Opens the probe channel (backup node -> primary thread 0); the primary
  // must not have started yet. `group` keys the checker's per-group epoch
  // history (the cluster passes itself). `backup_leader_hint` is the
  // redirect hint stamped into demoted gates (the new leader's index).
  FailoverCoordinator(kv::JakiroServer& primary, kv::JakiroServer& backup,
                      Replicator& replicator, ReplSink& sink, const void* group,
                      ReplOptions options, uint16_t backup_leader_hint = 1);

  // Flushes Stats labeled {node} by the backup.
  ~FailoverCoordinator();

  FailoverCoordinator(const FailoverCoordinator&) = delete;
  FailoverCoordinator& operator=(const FailoverCoordinator&) = delete;

  // Spawns the probe loop; the first lease starts now.
  void Start();
  void Stop() { stop_ = true; }

  // Promotes the backup now if it is promotable (see file comment). Called
  // by the probe loop on lease expiry; exposed so tests can race two
  // coordinators deliberately.
  void Promote();

  // TEST ONLY: skip step 4 (demoting the old primary's gate). A restarted
  // old primary then still believes it is the leader at the stale epoch —
  // the split-brain mutant the explorer corpus uses to prove the
  // epoch-regression invariant catches exactly this.
  void set_unsafe_skip_demotion(bool unsafe) { unsafe_skip_demotion_ = unsafe; }

  bool promoted() const { return promoted_; }
  sim::Time promoted_at() const { return promoted_at_; }
  uint64_t promotions() const { return stats_.promotions; }
  uint64_t promotions_refused() const { return stats_.promotions_refused; }
  uint64_t probes() const { return stats_.probes; }
  uint64_t probe_failures() const { return probe_failures_; }
  uint64_t lease_expiries() const { return stats_.lease_expiries; }

 private:
  sim::Task<void> ProbeLoop();
  // One probe round-trip; returns whether the primary answered in time.
  sim::Task<bool> ProbeOnce();

  kv::JakiroServer& primary_;
  kv::JakiroServer& backup_;
  Replicator& replicator_;
  ReplSink& sink_;
  const void* group_;
  ReplOptions options_;
  uint16_t backup_leader_hint_;
  sim::Engine& engine_;
  rfp::Channel* probe_channel_ = nullptr;
  std::unique_ptr<rfp::RpcClient> probe_stub_;
  sim::Time lease_deadline_ = 0;
  bool promoted_ = false;
  sim::Time promoted_at_ = 0;
  bool stop_ = false;
  bool unsafe_skip_demotion_ = false;
  bool resurrection_reported_ = false;
  uint32_t pre_promotion_epoch_ = 0;
  Stats stats_;
  uint64_t probe_failures_ = 0;
};

}  // namespace repl

#endif  // SRC_REPL_FAILOVER_H_
