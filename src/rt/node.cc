#include "rt/node.h"

#include <csignal>
#include <cstdio>
#include <fstream>

namespace seemore {
namespace rt {
namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void OnStopSignal(int) { g_stop_requested = 1; }

void InstallStopHandlers() {
  struct sigaction action {};
  action.sa_handler = OnStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the signal must interrupt epoll_wait
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// Up to `max_samples` evenly spaced entries of the executed-digest log —
/// the launcher's cross-process agreement surface.
Json DigestSamples(const ExecutedDigestLog& log, size_t max_samples = 32) {
  Json samples = Json::Array();
  if (log.empty()) return samples;
  const uint64_t floor = log.floor();
  const uint64_t ceil = log.ceil();
  const uint64_t span = ceil - floor + 1;
  const uint64_t step = span <= max_samples ? 1 : span / max_samples;
  for (uint64_t seq = floor; seq <= ceil; seq += step) {
    Json entry = Json::Object();
    entry.Set("seq", seq);
    entry.Set("digest", log.at(seq).ToHex());
    samples.Append(std::move(entry));
  }
  // Always include the frontier: the most constraining comparison point.
  if ((span - 1) % step != 0) {
    Json entry = Json::Object();
    entry.Set("seq", ceil);
    entry.Set("digest", log.at(ceil).ToHex());
    samples.Append(std::move(entry));
  }
  return samples;
}

}  // namespace

Node::Node(scenario::ScenarioSpec spec, NodeOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

Node::~Node() {
  // Replica references store references medium; drop in dependency order.
  replica_.reset();
  store_.reset();
  medium_.reset();
  transport_.reset();
}

Status Node::InitDurability() {
  if (!spec_.durability.enabled || options_.data_dir.empty()) {
    return Status::Ok();
  }
  medium_ = std::make_unique<PosixMedium>(options_.data_dir);
  SEEMORE_RETURN_IF_ERROR(medium_->status());
  store_ = std::make_unique<storage::FileDurableStore>(
      medium_.get(), spec_.durability, spec_.costs);
  auto sync_thread = std::make_unique<SyncThread>(loop_.get());
  SEEMORE_RETURN_IF_ERROR(sync_thread->status());
  store_->SetSyncRunner(std::move(sync_thread));

  // A data dir with prior WAL/snapshot files means this process is a
  // restarted incarnation: run the same recover -> reopen -> restore
  // sequence Cluster::Restart uses.
  const bool has_prior_state =
      !medium_->List("wal-").empty() || !medium_->List("snap-").empty();
  if (!has_prior_state) {
    SEEMORE_RETURN_IF_ERROR(store_->OpenFresh());
    replica_->AttachDurable(store_.get());
    return Status::Ok();
  }
  SEEMORE_ASSIGN_OR_RETURN(RecoveredImage image,
                           storage::FileDurableStore::Recover(*medium_));
  SEEMORE_RETURN_IF_ERROR(store_->OpenAfterRecovery(image));
  replica_->AttachDurable(store_.get());
  replica_->RestoreFromImage(image);
  recovery_ = RestartOutcome::Of(image);
  return Status::Ok();
}

Status Node::Init() {
  SEEMORE_RETURN_IF_ERROR(spec_.Validate());
  const ClusterConfig config = spec_.ResolvedConfig();
  if (options_.replica_id < 0 || options_.replica_id >= config.n()) {
    return Status::InvalidArgument("replica id out of range for topology");
  }

  loop_ = std::make_unique<EventLoop>();
  SEEMORE_RETURN_IF_ERROR(loop_->init_status());

  TcpTransportOptions transport_options;
  transport_options.num_replicas = config.n();
  transport_options.base_port = options_.base_port;
  transport_options.listen_fd = options_.listen_fd;
  transport_options.fingerprint = spec_.seed;
  transport_options.control_principal = kFaultControllerId;
  transport_options.trusted_count = config.s;
  transport_ =
      std::make_unique<TcpTransport>(loop_.get(), transport_options);
  transport_->SetControlHandler(
      [this](const FaultCommand& command) { OnControl(command); });
  transport_->SetLinkUpHandler([this](PrincipalId, PrincipalId) { OnLinkUp(); });

  keystore_ = std::make_unique<KeyStore>(RunKeySeed(spec_.seed));

  // No CryptoMemo: this process hosts one replica, and every frame it
  // receives is a fresh buffer, so a memo keyed on buffer identity could
  // never hit.
  replica_ = MakeReplica(spec_, options_.replica_id, transport_.get(),
                         loop_.get(), keystore_.get(), /*memo=*/nullptr);
  SEEMORE_RETURN_IF_ERROR(transport_->status());  // listener bind outcome
  return InitDurability();
}

void Node::OnControl(const FaultCommand& command) {
  switch (command.kind) {
    case ControlKind::kSetByzantine:
      if (command.replica == options_.replica_id) {
        replica_->SetByzantine(command.byz_flags);
      }
      return;
    case ControlKind::kSwitchMode: {
      if (spec_.protocol != ProtocolKind::kSeeMoRe) return;
      auto* seemore = static_cast<SeeMoReReplica*>(replica_.get());
      const SeeMoReMode target = static_cast<SeeMoReMode>(command.mode);
      // The command is broadcast; only the first live authority acts, the
      // same pick as the sim's RequestSwitch.
      const uint32_t crashed = command.value;
      const PrincipalId authority = seemore->LiveSwitchAuthority(
          target, [crashed](PrincipalId r) {
            return r >= 32 || (crashed & (1u << r)) == 0;
          });
      if (authority == options_.replica_id) {
        (void)seemore->RequestModeSwitch(target);
      }
      return;
    }
    case ControlKind::kQueryPrimary: {
      FaultCommand reply;
      reply.kind = ControlKind::kPrimaryReply;
      reply.replica = options_.replica_id;
      // +1 so "unknown primary" (no reply field set) stays distinct from
      // replica 0.
      reply.value = static_cast<uint32_t>(replica_->current_primary() + 1);
      transport_->Send(options_.replica_id, kFaultControllerId,
                       Payload(EncodeFaultCommandBody(reply)));
      return;
    }
    default:
      return;  // link-level kinds were consumed by the transport
  }
}

void Node::OnLinkUp() {
  if (ready_sent_ || !transport_->ConnectedTo(kFaultControllerId)) return;
  for (PrincipalId peer = 0; peer < replica_->config().n(); ++peer) {
    if (peer != options_.replica_id && !transport_->ConnectedTo(peer)) return;
  }
  ready_sent_ = true;
  FaultCommand ready;
  ready.kind = ControlKind::kReady;
  ready.replica = options_.replica_id;
  transport_->Send(options_.replica_id, kFaultControllerId,
                   Payload(EncodeFaultCommandBody(ready)));
}

Status Node::Serve() {
  if (replica_ == nullptr) return Status::FailedPrecondition("Init first");
  InstallStopHandlers();
  loop_->set_interrupt([] { return g_stop_requested != 0; });
  loop_->Run(options_.max_run > 0 ? options_.max_run : -1);

  const std::string text = Report().Dump(2) + "\n";
  if (options_.report_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::Ok();
  }
  std::ofstream out(options_.report_path);
  if (!(out << text)) {
    return Status::Internal("cannot write report: " + options_.report_path);
  }
  return Status::Ok();
}

Json Node::Report() const {
  Json root = Json::Object();
  root.Set("id", options_.replica_id);
  root.Set("protocol", scenario::ProtocolKindToken(spec_.protocol));

  const ReplicaStats& stats = replica_->stats();
  Json stats_json = Json::Object();
  stats_json.Set("requests_executed", stats.requests_executed);
  stats_json.Set("batches_committed", stats.batches_committed);
  stats_json.Set("view_changes_completed", stats.view_changes_completed);
  stats_json.Set("mode_changes", stats.mode_changes);
  stats_json.Set("messages_handled", stats.messages_handled);
  stats_json.Set("equivocations_detected", stats.equivocations_detected);
  stats_json.Set("state_transfers", stats.state_transfers);
  stats_json.Set("batch_fetches", stats.batch_fetches);
  stats_json.Set("batches_fetched", stats.batches_fetched);
  stats_json.Set("batch_fetch_rejects", stats.batch_fetch_rejects);
  stats_json.Set("view_change_bytes_sent", stats.view_change_bytes_sent);
  stats_json.Set("view_change_msgs_sent", stats.view_change_msgs_sent);
  stats_json.Set("view_change_entries_sent", stats.view_change_entries_sent);
  if (store_ != nullptr) {
    stats_json.Set("wal_syncs", store_->wal().sync_count());
    stats_json.Set("wal_records", store_->wal().appended_lsn());
  }
  root.Set("stats", std::move(stats_json));

  root.Set("last_executed", replica_->exec().last_executed());
  root.Set("state_digest", replica_->exec().StateDigest().ToHex());
  root.Set("digest_samples", DigestSamples(replica_->exec().executed_digests()));
  root.Set("cpu_busy_ms",
           static_cast<double>(transport_->MeterBusy(options_.replica_id)) /
               kNanosPerMilli);
  root.Set("run_ns", loop_->Now());

  Json recovery = Json::Object();
  const RestartOutcome restored = recovery_.value_or(RestartOutcome());
  recovery.Set("recovered", recovery_.has_value());
  recovery.Set("snapshot_seq", restored.snapshot_seq);
  recovery.Set("replayed_commits", restored.replayed_commits);
  recovery.Set("truncated_bytes", restored.truncated_bytes);
  root.Set("recovery", std::move(recovery));

  root.Set("net", transport_->counters().ToJson());
  Json loop = Json::Object();
  loop.Set("wakeups", loop_->wakeups());
  root.Set("loop", std::move(loop));
  root.Set("rusage", ProcessUsage::Now().ToJson());
  return root;
}

}  // namespace rt
}  // namespace seemore
