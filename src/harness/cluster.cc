#include "harness/cluster.h"

#include "util/logging.h"

namespace seemore {

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  SEEMORE_CHECK(options_.config.Validate().ok())
      << "invalid cluster config: " << options_.config.Validate().ToString();
  sim_ = std::make_unique<Simulator>(options_.seed);
  keystore_ = std::make_unique<KeyStore>(RunKeySeed(options_.seed));
  memo_ = std::make_unique<CryptoMemo>();
  net_ = std::make_unique<SimNetwork>(sim_.get(), options_.net);

  // The cluster is the composition root: it owns the concrete simulator and
  // simulated network, and hands replicas/clients only the Transport and
  // TimerService interfaces they are written against.
  const ClusterConfig& config = options_.config;
  media_.resize(config.n());
  stores_.resize(config.n());
  for (int i = 0; i < config.n(); ++i) {
    replicas_.push_back(BuildReplica(i));
    if (options_.durability.enabled) {
      media_[i] = std::make_unique<storage::MemMedium>();
      stores_[i] = std::make_unique<storage::FileDurableStore>(
          media_[i].get(), options_.durability, options_.costs);
      const Status st = stores_[i]->OpenFresh();
      SEEMORE_CHECK(st.ok()) << "open durable store: " << st.ToString();
      replicas_[i]->AttachDurable(stores_[i].get());
    }
  }
}

Cluster::~Cluster() {
  // Replicas reference their stores (and those the media); drop them first.
  replicas_.clear();
  clients_.clear();
}

std::unique_ptr<ReplicaBase> MakeReplica(
    const ClusterConfig& config, int id, Transport* transport,
    TimerService* timers, const KeyStore* keystore, CryptoMemo* memo,
    std::unique_ptr<StateMachine> state_machine, const CostModel& costs) {
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

int CurrentPrimary(const ReplicaBase& replica, const ClusterConfig& config) {
  switch (config.kind) {
    case ProtocolKind::kSeeMoRe:
      return static_cast<const SeeMoReReplica&>(replica).current_primary();
    case ProtocolKind::kCft:
      return config.FlatPrimary(
          static_cast<const PaxosReplica&>(replica).view());
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      return config.FlatPrimary(
          static_cast<const PbftCoreReplica&>(replica).view());
  }
  return -1;
}

std::unique_ptr<ReplicaBase> Cluster::BuildReplica(int i) {
  return MakeReplica(options_.config, i, net_.get(), sim_.get(),
                     keystore_.get(), memo_.get(),
                     options_.state_machine_factory(), options_.costs);
}

Result<RestartOutcome> Cluster::Restart(int i) {
  SEEMORE_CHECK(i >= 0 && i < n()) << "restart replica " << i;
  if (!options_.durability.enabled) {
    return Status::FailedPrecondition(
        "restart requires durability (enable ClusterOptions::durability)");
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
      media_[i].get(), options_.durability, options_.costs);
  const Status opened = store->OpenAfterRecovery(image);
  // The medium cannot fail IO and recovery validated the inputs; failure
  // here is a storage-layer bug, not an injectable fault.
  SEEMORE_CHECK(opened.ok()) << "reopen after recovery: " << opened.ToString();

  replicas_[i] = BuildReplica(i);
  replicas_[i]->AttachDurable(store.get());
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
  SEEMORE_CHECK(options_.durability.enabled)
      << "power loss requires durability";
  replicas_[i]->Crash();
  media_[i]->PowerLoss();
}

Status Cluster::TamperWal(int i, storage::WalTamper tamper,
                          uint64_t offset_from_end) {
  if (!options_.durability.enabled) {
    return Status::FailedPrecondition("wal tampering requires durability");
  }
  if (!replicas_[i]->crashed()) {
    return Status::FailedPrecondition("wal tampering target is not crashed");
  }
  return storage::TamperWalTail(*media_[i], tamper, offset_from_end);
}

SeeMoReReplica* Cluster::seemore(int i) {
  SEEMORE_CHECK(options_.config.kind == ProtocolKind::kSeeMoRe);
  return static_cast<SeeMoReReplica*>(replicas_[i].get());
}

PaxosReplica* Cluster::paxos(int i) {
  SEEMORE_CHECK(options_.config.kind == ProtocolKind::kCft);
  return static_cast<PaxosReplica*>(replicas_[i].get());
}

PbftCoreReplica* Cluster::pbft(int i) {
  SEEMORE_CHECK(options_.config.kind == ProtocolKind::kBft ||
                options_.config.kind == ProtocolKind::kSUpRight);
  return static_cast<PbftCoreReplica*>(replicas_[i].get());
}

SimClient* Cluster::AddClient() {
  ClientOptions client_options;
  client_options.id = next_client_id_++;
  client_options.retransmit_timeout = options_.client_retransmit_timeout;
  clients_.push_back(std::make_unique<SimClient>(
      net_.get(), sim_.get(), keystore_.get(), client_options,
      MakeReplyPolicy(options_.config)));
  return clients_.back().get();
}

void Cluster::SetByzantine(int i, uint32_t flags) {
  if (options_.config.kind == ProtocolKind::kSeeMoRe) {
    // The model only admits Byzantine behaviour in the public cloud (§3.1).
    SEEMORE_CHECK(!options_.config.IsTrusted(i) || flags == kByzNone)
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
