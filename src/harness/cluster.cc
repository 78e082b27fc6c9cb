#include "harness/cluster.h"

#include "smr/ledger.h"
#include "util/logging.h"

namespace seemore {
namespace {

/// The validated spec, or a CHECK failure naming what is wrong with it.
const scenario::ScenarioSpec& CheckedSpec(const scenario::ScenarioSpec& spec) {
  const Status valid = spec.Validate();
  SEEMORE_CHECK(valid.ok()) << "invalid scenario spec: " << valid.ToString();
  return spec;
}

/// A replica's background WAL syncs in the simulator: a sync starts once
/// the replica's CPU has written what it covers (its AvailableAt) and
/// completes `latency` later as a storage event of its own, occupying no
/// CPU. The WAL keeps at most one in flight.
class SimSyncRunner final : public storage::SyncRunner {
 public:
  SimSyncRunner(Simulator* sim, const CpuMeter* cpu, SimTime latency)
      : sim_(sim), cpu_(cpu), latency_(latency) {}
  ~SimSyncRunner() override {
    if (pending_ != 0) sim_->Cancel(pending_);
  }
  SimSyncRunner(const SimSyncRunner&) = delete;
  SimSyncRunner& operator=(const SimSyncRunner&) = delete;

  void Run(storage::SyncJob job, std::function<void(Status)> done) override {
    SEEMORE_CHECK(pending_ == 0) << "one wal sync in flight at a time";
    job_ = std::move(job);
    done_ = std::move(done);
    pending_ = sim_->ScheduleAt(cpu_->AvailableAt() + latency_, [this] {
      pending_ = 0;
      const storage::SyncJob job = std::move(job_);
      const std::function<void(Status)> done = std::move(done_);
      done(job());
    });
  }

 private:
  Simulator* sim_;
  const CpuMeter* cpu_;
  const SimTime latency_;
  EventId pending_ = 0;
  storage::SyncJob job_;                  // of the sync in flight
  std::function<void(Status)> done_;
};

std::unique_ptr<StateMachine> MakeStateMachine(
    scenario::StateMachineKind kind) {
  if (kind == scenario::StateMachineKind::kLedger) {
    return std::make_unique<LedgerStateMachine>();
  }
  return std::make_unique<KvStateMachine>();
}

}  // namespace

Cluster::Cluster(const scenario::ScenarioSpec& spec)
    : spec_(CheckedSpec(spec)), config_(spec_.ResolvedConfig()) {
  sim_ = std::make_unique<Simulator>(spec_.seed);
  keystore_ = std::make_unique<KeyStore>(RunKeySeed(spec_.seed));
  memo_ = std::make_unique<CryptoMemo>();
  net_ = std::make_unique<SimNetwork>(sim_.get(), spec_.net);

  // The cluster is the composition root: it owns the concrete simulator and
  // simulated network, and hands replicas/clients only the Transport and
  // TimerService interfaces they are written against.
  media_.resize(config_.n());
  stores_.resize(config_.n());
  for (int i = 0; i < config_.n(); ++i) {
    replicas_.push_back(BuildReplica(i));
    if (spec_.durability.enabled) {
      media_[i] = std::make_unique<storage::MemMedium>();
      stores_[i] = std::make_unique<storage::FileDurableStore>(
          media_[i].get(), spec_.durability, spec_.costs);
      const Status st = stores_[i]->OpenFresh();
      SEEMORE_CHECK(st.ok()) << "open durable store: " << st.ToString();
      AttachStore(i, stores_[i].get());
    }
  }
}

Cluster::~Cluster() {
  // Replicas reference their stores (and those the media); drop them first.
  replicas_.clear();
  clients_.clear();
}

std::unique_ptr<ReplicaBase> MakeReplica(const scenario::ScenarioSpec& spec,
                                         int id, Transport* transport,
                                         TimerService* timers,
                                         const KeyStore* keystore,
                                         CryptoMemo* memo) {
  const ClusterConfig config = spec.ResolvedConfig();
  std::unique_ptr<StateMachine> state_machine =
      MakeStateMachine(spec.state_machine);
  const CostModel& costs = spec.costs;
  switch (config.kind) {
    case ProtocolKind::kCft:
      return std::make_unique<PaxosReplica>(transport, timers, keystore, memo,
                                            id, config,
                                            std::move(state_machine), costs);
    case ProtocolKind::kBft:
      return std::make_unique<PbftReplica>(transport, timers, keystore, memo,
                                           id, config,
                                           std::move(state_machine), costs);
    case ProtocolKind::kSUpRight:
      return std::make_unique<SUpRightReplica>(
          transport, timers, keystore, memo, id, config,
          std::move(state_machine), costs);
    case ProtocolKind::kSeeMoRe:
      return std::make_unique<SeeMoReReplica>(
          transport, timers, keystore, memo, id, config,
          std::move(state_machine), costs);
  }
  SEEMORE_CHECK(false) << "unknown protocol kind";
  return nullptr;
}

std::unique_ptr<ReplicaBase> Cluster::BuildReplica(int i) {
  return MakeReplica(spec_, i, net_.get(), sim_.get(), keystore_.get(),
                     memo_.get());
}

void Cluster::AttachStore(int i, storage::FileDurableStore* store) {
  store->SetSyncRunner(std::make_unique<SimSyncRunner>(
      sim_.get(), replicas_[i]->cpu(), spec_.costs.fsync));
  replicas_[i]->AttachDurable(store);
}

Result<RestartOutcome> Cluster::Restart(int i) {
  SEEMORE_CHECK(i >= 0 && i < n()) << "restart replica " << i;
  if (!spec_.durability.enabled) {
    return Status::FailedPrecondition(
        "restart requires durability (enable the spec's durability)");
  }
  if (!replicas_[i]->crashed()) {
    return Status::FailedPrecondition("restart target is not crashed");
  }
  // Read-only recovery first: a corrupt log refuses the restart and leaves
  // the crashed incarnation and its disk untouched.
  SEEMORE_ASSIGN_OR_RETURN(RecoveredImage image,
                           storage::FileDurableStore::Recover(*media_[i]));

  // Tear down the old incarnation before its replacement registers under
  // the same principal id. Timers and in-flight deliveries hold no dangling
  // references (alive tokens / delivery-time re-resolution).
  replicas_[i].reset();
  stores_[i].reset();
  net_->Unregister(i);

  auto store = std::make_unique<storage::FileDurableStore>(
      media_[i].get(), spec_.durability, spec_.costs);
  const Status opened = store->OpenAfterRecovery(image);
  // The medium cannot fail IO and recovery validated the inputs; failure
  // here is a storage-layer bug, not an injectable fault.
  SEEMORE_CHECK(opened.ok()) << "reopen after recovery: " << opened.ToString();

  replicas_[i] = BuildReplica(i);
  AttachStore(i, store.get());
  replicas_[i]->RestoreFromImage(image);
  stores_[i] = std::move(store);

  return RestartOutcome::Of(image);
}

RestartOutcome RestartOutcome::Of(const RecoveredImage& image) {
  RestartOutcome outcome;
  if (const storage::RecoveredSnapshot* latest = image.Latest()) {
    outcome.snapshot_seq = latest->seq;
  }
  outcome.replayed_commits = image.commits.size();
  outcome.truncated_bytes = image.truncated_bytes;
  return outcome;
}

void Cluster::PowerLoss(int i) {
  SEEMORE_CHECK(spec_.durability.enabled)
      << "power loss requires durability";
  replicas_[i]->Crash();
  media_[i]->PowerLoss();
}

Status Cluster::TamperWal(int i, storage::WalTamper tamper,
                          uint64_t offset_from_end) {
  if (!spec_.durability.enabled) {
    return Status::FailedPrecondition("wal tampering requires durability");
  }
  if (!replicas_[i]->crashed()) {
    return Status::FailedPrecondition("wal tampering target is not crashed");
  }
  return storage::TamperWalTail(*media_[i], tamper, offset_from_end);
}

SeeMoReReplica* Cluster::seemore(int i) {
  SEEMORE_CHECK(config_.kind == ProtocolKind::kSeeMoRe);
  return static_cast<SeeMoReReplica*>(replicas_[i].get());
}

PaxosReplica* Cluster::paxos(int i) {
  SEEMORE_CHECK(config_.kind == ProtocolKind::kCft);
  return static_cast<PaxosReplica*>(replicas_[i].get());
}

PbftCoreReplica* Cluster::pbft(int i) {
  SEEMORE_CHECK(config_.kind == ProtocolKind::kBft ||
                config_.kind == ProtocolKind::kSUpRight);
  return static_cast<PbftCoreReplica*>(replicas_[i].get());
}

SimClient* Cluster::AddClient() {
  ClientOptions client_options;
  client_options.id = next_client_id_++;
  client_options.retransmit_timeout = spec_.client_retransmit_timeout;
  clients_.push_back(std::make_unique<SimClient>(
      net_.get(), sim_.get(), keystore_.get(), client_options,
      MakeReplyPolicy(config_)));
  return clients_.back().get();
}

void Cluster::SetByzantine(int i, uint32_t flags) {
  if (config_.kind == ProtocolKind::kSeeMoRe) {
    // The model only admits Byzantine behaviour in the public cloud (§3.1).
    SEEMORE_CHECK(!config_.IsTrusted(i) || flags == kByzNone)
        << "cannot make trusted replica " << i << " Byzantine";
  }
  replicas_[i]->SetByzantine(flags);
}

scenario::ReplicaOutcome Cluster::Outcome(int i) const {
  const ReplicaBase& replica = *replicas_[i];
  scenario::ReplicaOutcome outcome;
  outcome.id = i;
  outcome.end = replica.crashed() ? scenario::ReplicaEnd::kKilled
                                  : scenario::ReplicaEnd::kRan;
  outcome.last_executed = replica.exec().last_executed();
  outcome.state_digest = replica.exec().StateDigest();
  outcome.digest_log = &replica.exec().executed_digests();
  return outcome;
}

Status Cluster::CheckAgreement() const {
  std::vector<scenario::ReplicaOutcome> outcomes;
  for (int i = 0; i < n(); ++i) outcomes.push_back(Outcome(i));
  return scenario::CheckVerdict(outcomes, /*check_convergence=*/false)
      .agreement;
}

Status Cluster::CheckConvergence(const std::vector<int>& replicas) const {
  std::vector<scenario::ReplicaOutcome> outcomes;
  for (int i : replicas) {
    outcomes.push_back(Outcome(i));
    outcomes.back().end = scenario::ReplicaEnd::kRan;  // listed = compared
  }
  return scenario::CheckVerdict(outcomes, /*check_convergence=*/true)
      .convergence;
}

uint64_t Cluster::TotalExecuted() const {
  uint64_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->stats().requests_executed;
  }
  return total;
}

}  // namespace seemore
