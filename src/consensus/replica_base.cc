#include "consensus/replica_base.h"

#include <utility>

#include "util/logging.h"

namespace seemore {

ReplicaBase::ReplicaBase(Transport* transport, TimerService* timers,
                         const KeyStore* keystore, CryptoMemo* memo,
                         PrincipalId id, const ClusterConfig& config,
                         std::unique_ptr<StateMachine> state_machine,
                         const CostModel& costs)
    : transport_(transport),
      timers_(timers),
      keystore_(keystore),
      memo_(memo),
      id_(id),
      config_(config),
      all_replicas_(config.AllReplicas()),
      costs_(costs),
      signer_(id, *keystore),
      cpu_(transport->Register(id, config.ReplicaZone(id), this,
                               /*metered=*/true)),
      exec_(std::move(state_machine)),
      commits_(exec_, stats_, cpu_, costs_),
      durable_(DurableStore::Null()) {
  SEEMORE_CHECK(cpu_ != nullptr) << "transport returned no CPU meter";
  // Opt-in reply-cache bound (see ClusterConfig::reply_cache_retention).
  // Eviction keys off the committed prefix and last_seq travels inside
  // snapshots, so every correct replica's cache — and checkpoint digest —
  // stays identical, state transfers included.
  exec_.SetReplyRetention(config.reply_cache_retention);
}

ReplicaBase::~ReplicaBase() { *alive_ = false; }

void ReplicaBase::AttachDurable(DurableStore* store) {
  durable_ = store != nullptr ? store : DurableStore::Null();
  durable_->BindCpu(cpu_);
  commits_.SetDurable(durable_);
}

void ReplicaBase::RestoreFromImage(const RecoveredImage& image) {
  if (const storage::RecoveredSnapshot* snap = image.Latest()) {
    const Status st = exec_.Restore(snap->bytes, snap->seq);
    // The snapshot's CRC matched at recovery, so a decode failure here is a
    // writer/reader version bug, not injectable damage.
    SEEMORE_CHECK(st.ok()) << "snapshot restore failed: " << st.ToString();
  }
  // Replay through the engine directly: gap-tolerant, dedups overlap with
  // the snapshot, and sends no replies and charges no CPU — the work
  // happened while the replica was down. A WAL record carries no digest,
  // so replay computes it.
  for (const auto& [seq, batch] : image.commits) {
    exec_.Commit(seq, batch, batch.ComputeDigest());
  }
  // See proposer_quiesced(): no proposing in the restored view — the
  // pre-crash incarnation may have signed proposals this image lacks.
  proposer_quiesced_ = true;
  OnDurableRestore(image);
}

void ReplicaBase::Crash() {
  crashed_ = true;
  ++epoch_;  // invalidates all outstanding timers
  transport_->SetNodeUp(id_, false);
}

void ReplicaBase::Recover() {
  crashed_ = false;
  transport_->SetNodeUp(id_, true);
  OnRecover();
}

void ReplicaBase::OnMessage(PrincipalId from, Payload payload) {
  if (crashed_) return;
  if (HasByz(kByzSilent)) return;
  ++stats_.messages_handled;
  Charge(costs_.recv_fixed + costs_.PayloadCost(payload.size()));
  // Save/restore keeps the frame alive (and the memo keyed correctly) even
  // if a transport ever delivers a nested message synchronously.
  Payload prev = std::exchange(current_frame_, std::move(payload));
  HandleMessage(from, current_frame_);
  current_frame_ = std::move(prev);
}

void ReplicaBase::SendTo(PrincipalId to, const Payload& msg) {
  if (crashed_) return;
  Charge(costs_.send_fixed + costs_.PayloadCost(msg.size()));
  transport_->Send(id_, to, msg);
}

void ReplicaBase::SendToMany(const std::vector<PrincipalId>& targets,
                             const Payload& msg) {
  if (crashed_) return;
  for (PrincipalId to : targets) {
    if (to == id_) continue;
    SendTo(to, msg);
  }
}

EventId ReplicaBase::StartTimer(SimTime delay, std::function<void()> fn) {
  const uint64_t epoch = epoch_;
  // The alive token guards against a restart destroying this replica while
  // the timer is still queued; it must be checked before any member read.
  return timers_->ScheduleAfter(
      delay, [this, alive = alive_, epoch, fn = std::move(fn)] {
        if (!*alive || crashed_ || epoch != epoch_) return;
        fn();
      });
}

void ReplicaBase::CancelTimer(EventId& id) {
  if (id != 0) {
    timers_->CancelEvent(id);
    id = 0;
  }
}

}  // namespace seemore
