// Cluster builder: wires a simulator, network, keystore, one replica process
// per node (of the configured protocol), and any number of clients. Also the
// fault-injection surface used by tests and the Figure 4 benchmark.

#ifndef SEEMORE_HARNESS_CLUSTER_H_
#define SEEMORE_HARNESS_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/paxos/paxos_replica.h"
#include "baselines/pbft/pbft_replica.h"
#include "baselines/supright/supright_replica.h"
#include "consensus/config.h"
#include "harness/policies.h"
#include "net/network.h"
#include "scenario/verdict.h"
#include "seemore/seemore_replica.h"
#include "sim/simulator.h"
#include "smr/client.h"
#include "smr/kv_store.h"
#include "storage/file_store.h"
#include "storage/medium.h"

namespace seemore {

struct ClusterOptions {
  ClusterConfig config;
  NetworkConfig net;
  CostModel costs;
  uint64_t seed = 1;
  SimTime client_retransmit_timeout = Millis(60);
  /// Factory for each replica's state machine.
  std::function<std::unique_ptr<StateMachine>()> state_machine_factory = [] {
    return std::make_unique<KvStateMachine>();
  };
  /// Durable storage knobs. Disabled by default: every replica then runs on
  /// the no-op store and behaves bit-identically to the pre-durability code.
  DurabilityOptions durability;
};

/// The KeyStore seed of a run seeded with `seed`: every process of a run
/// derives the identical per-principal keys from it.
inline uint64_t RunKeySeed(uint64_t seed) {
  return seed ^ 0x5eed'c0de'5eed'c0deULL;
}

/// Replica `id` of `config`'s protocol over the given runtime seams: the
/// one per-protocol factory behind both the simulated cluster and a
/// seemore_node process.
std::unique_ptr<ReplicaBase> MakeReplica(
    const ClusterConfig& config, int id, Transport* transport,
    TimerService* timers, const KeyStore* keystore, CryptoMemo* memo,
    std::unique_ptr<StateMachine> state_machine, const CostModel& costs);

/// Who `replica` believes is primary now (replicas can disagree mid view
/// change; any live vantage is fine for fault injection).
int CurrentPrimary(const ReplicaBase& replica, const ClusterConfig& config);

/// What a successful Restart() reconstructed (scenario/report provenance).
struct RestartOutcome {
  uint64_t snapshot_seq = 0;     // newest snapshot restored from (0 = none)
  uint64_t replayed_commits = 0; // WAL commit records replayed
  uint64_t truncated_bytes = 0;  // torn tail discarded during recovery

  static RestartOutcome Of(const RecoveredImage& image);
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Simulator& sim() { return *sim_; }
  SimNetwork& net() { return *net_; }
  const KeyStore& keystore() const { return *keystore_; }
  const ClusterConfig& config() const { return options_.config; }

  int n() const { return options_.config.n(); }
  ReplicaBase* replica(int i) { return replicas_[i].get(); }

  /// Typed accessors (check the protocol kind).
  SeeMoReReplica* seemore(int i);
  PaxosReplica* paxos(int i);
  PbftCoreReplica* pbft(int i);

  /// Create a client wired with the protocol's reply policy.
  SimClient* AddClient();
  SimClient* client(int i) { return clients_[i].get(); }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  /// --- fault injection ---------------------------------------------------
  void Crash(int i) { replicas_[i]->Crash(); }
  void Recover(int i) { replicas_[i]->Recover(); }
  void SetByzantine(int i, uint32_t flags);

  /// --- durability / restart ----------------------------------------------
  /// Per-replica disk (null when durability is disabled).
  storage::MemMedium* medium(int i) { return media_[i].get(); }

  /// Replace a crashed replica with a new incarnation rebuilt from its
  /// durable state (kill-and-restart, as opposed to Recover()'s
  /// kill-and-rejoin which keeps the in-memory state). Refuses with a typed
  /// error — leaving the old incarnation crashed and the disk untouched —
  /// when durability is off, the target is not crashed, or recovery finds
  /// mid-log corruption (kCorruption).
  Result<RestartOutcome> Restart(int i);

  /// Crash `i` AND roll its disk back to what the hardware durably holds
  /// (unsynced tails are cut at sector granularity: torn writes).
  void PowerLoss(int i);

  /// Damage a crashed replica's newest WAL segment (storage::TamperWalTail:
  /// latent media damage discovered at the next restart).
  Status TamperWal(int i, storage::WalTamper tamper, uint64_t offset_from_end);

  /// --- invariants (scenario/verdict.h) -------------------------------------
  /// How replica `i` stands now: crashed replicas count as killed, and the
  /// outcome shows the replica's digest log by reference.
  scenario::ReplicaOutcome Outcome(int i) const;
  /// Agreement: every pair of replicas executed identical batches at every
  /// sequence number both executed. Returns an explanation on violation.
  Status CheckAgreement() const;
  /// The listed replicas converged to the same frontier and state digest
  /// (call after quiescence).
  Status CheckConvergence(const std::vector<int>& replicas) const;

  /// Sum of requests_executed across replicas (progress diagnostics).
  uint64_t TotalExecuted() const;

 private:
  /// MakeReplica over this cluster's simulator, network and keys.
  std::unique_ptr<ReplicaBase> BuildReplica(int i);

  ClusterOptions options_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<KeyStore> keystore_;
  /// The run's digest/verify memo (crypto/memo.h): shared by this cluster's
  /// replicas, private to this run — concurrent clusters on other threads
  /// each have their own, which is what makes scenario::RunMany safe.
  std::unique_ptr<CryptoMemo> memo_;
  std::unique_ptr<SimNetwork> net_;
  std::vector<std::unique_ptr<ReplicaBase>> replicas_;
  /// Parallel to replicas_; empty slots (nullptr) when durability is off.
  /// Media outlive stores outlive replicas — destruction order matters on
  /// restart, so Restart() resets the replica before touching its store.
  std::vector<std::unique_ptr<storage::MemMedium>> media_;
  std::vector<std::unique_ptr<storage::FileDurableStore>> stores_;
  std::vector<std::unique_ptr<SimClient>> clients_;
  PrincipalId next_client_id_ = kClientIdBase;
};

}  // namespace seemore

#endif  // SEEMORE_HARNESS_CLUSTER_H_
