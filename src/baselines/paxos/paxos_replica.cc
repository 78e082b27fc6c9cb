#include "baselines/paxos/paxos_replica.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {

PaxosReplica::PaxosReplica(Transport* transport, TimerService* timers,
                           const KeyStore* keystore, CryptoMemo* memo,
                           PrincipalId id, const ClusterConfig& config,
                           std::unique_ptr<StateMachine> state_machine,
                           const CostModel& costs)
    : CheckpointingReplica(
          transport, timers, keystore, memo, id, config,
          std::move(state_machine), costs,
          {kPaxCheckpoint, kPaxStateRequest, kPaxStateResponse}),
      pipeline_(config.batch_max, config.pipeline_max) {
  current_vc_timeout_ = config_.view_change_timeout;
}

void PaxosReplica::HandleMessage(PrincipalId from, const Payload& frame) {
  Decoder dec = FrameDecoder(frame);
  const uint8_t tag = dec.GetU8();
  if (!dec.ok()) return;
  // Channels are pairwise authenticated: protocol-internal messages are only
  // ever legitimate on replica-to-replica channels. (In the crash model this
  // is the ONLY defense — there are no signatures to reject forgeries.)
  if (tag != kMsgRequest && !IsReplicaId(from)) return;
  // Channel MAC check on every protocol message.
  ChargeMac();
  switch (tag) {
    case kMsgRequest:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleRequest);
      break;
    case kPaxAccept:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleAccept);
      break;
    case kPaxAck:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleAck);
      break;
    case kPaxCommit:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleCommit);
      break;
    case kPaxViewChange: {
      Result<PaxosViewChangeMsg> msg =
          PaxosViewChangeMsg::DecodeFrom(dec, window_);
      if (msg.ok()) HandleViewChange(from, std::move(msg).value());
      break;
    }
    case kPaxNewView: {
      Result<PaxosNewViewMsg> msg =
          PaxosNewViewMsg::DecodeFrom(dec, 1u << 20);
      if (msg.ok()) HandleNewView(from, std::move(msg).value());
      break;
    }
    case kPaxCheckpoint:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleCheckpoint);
      break;
    case kPaxStateRequest:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleStateRequest);
      break;
    case kPaxStateResponse:
      DispatchTyped(this, from, dec, &PaxosReplica::HandleStateResponse);
      break;
    default:
      break;  // unknown tag: ignore
  }
}

// ---------------------------------------------------------------------------
// Normal case
// ---------------------------------------------------------------------------

void PaxosReplica::HandleRequest(PrincipalId from, Request request) {
  // Channel authentication (§3.1): a request arriving directly from a
  // client channel must name that client. Without this, a rogue client
  // could impersonate another and poison its timestamp sequence — the
  // crash-model baseline has no signatures to catch it otherwise.
  if (IsClientPrincipal(from) && from != request.client) return;

  // Retransmission of an executed request: resend the cached reply.
  if (exec_.SeenTimestamp(request.client, request.timestamp)) {
    auto cached = exec_.CachedReply(request.client, request.timestamp);
    if (cached.has_value()) {
      Reply reply;
      reply.mode = 0;
      reply.view = view_;
      reply.timestamp = request.timestamp;
      reply.replica = id_;
      reply.result = *cached;
      reply.Sign(signer_);
      ChargeMac();
      SendTo(request.client, reply.ToMessage());
    }
    return;
  }

  if (IsLeader() && !in_view_change_) {
    LeaderEnqueue(std::move(request));
  } else if (!in_view_change_) {
    // Clients multicast to the whole receiving network, so the primary has
    // its own copy on the first transmission. Seeing the SAME timestamp
    // again means the client timed out: relay to the primary (its copy may
    // have been lost or the client cannot reach it) and arm the liveness
    // timer — if the request still never commits, a view change follows.
    if (from == request.client) {
      if (pipeline_.NoteDirectDelivery(request.client, request.timestamp)) {
        SendTo(config_.FlatPrimary(view_), request.ToMessage());
      }
    }
    ArmViewTimer();
  }
}

void PaxosReplica::LeaderEnqueue(Request request) {
  if (!pipeline_.Admit(request)) return;  // already queued or proposed
  pipeline_.Enqueue(std::move(request));
  TryPropose();
}

void PaxosReplica::TryPropose() {
  if (proposer_quiesced()) return;
  while (pipeline_.CanOpen(log_.UncommittedSlots())) {
    auto [seq, batch] = pipeline_.Open();
    SlotCore& slot = log_.Slot(seq);
    slot.batch = std::move(batch);
    log_.SetHasBatch(slot, true);
    const Bytes encoded = slot.batch.Encode();
    ChargeHash(encoded.size());
    slot.digest = Digest::Of(encoded);
    slot.view = view_;
    RecordVote(slot.plain_votes, slot.digest, id_);

    PaxosAcceptMsg accept{view_, seq, encoded};
    SendToMany(config_.AllReplicas(), accept.ToMessage());
  }
}

void PaxosReplica::HandleAccept(PrincipalId from, PaxosAcceptMsg msg) {
  // Crash model: a claimed higher view from its rightful leader is honest.
  if (msg.view > view_ && config_.FlatPrimary(msg.view) == from) {
    EnterView(msg.view);
  }
  if (msg.view != view_ || in_view_change_) return;
  if (from != config_.FlatPrimary(view_)) return;
  if (msg.seq <= ckpt_.stable_seq()) return;

  Result<Batch> batch_or = Batch::Decode(msg.batch);
  if (!batch_or.ok()) return;

  SlotCore& slot = log_.Slot(msg.seq);
  if (!slot.has_batch()) {
    slot.batch = std::move(batch_or).value();
    log_.SetHasBatch(slot, true);
    ChargeHash(msg.batch.size());
    slot.digest = FrameFieldDigest(msg.batch, msg.batch_offset);
    slot.view = msg.view;
  }

  PaxosAckMsg ack{msg.view, msg.seq, slot.digest};
  SendTo(from, ack.ToMessage());
  if (slot.commit_seen && !slot.committed()) {
    CommitSlot(msg.seq, slot, /*send_replies=*/false);
  } else {
    ArmViewTimer();
  }
}

void PaxosReplica::HandleAck(PrincipalId from, PaxosAckMsg msg) {
  if (msg.view != view_ || !IsLeader() || in_view_change_) return;
  SlotCore* found = log_.Find(msg.seq);
  if (found == nullptr || !found->has_batch()) return;
  SlotCore& slot = *found;
  if (slot.commit_sent) return;  // COMMIT already broadcast
  // The tracker sees every ACK (a conflicting digest flags the sender);
  // only ACKs matching the proposal count toward the quorum.
  RecordVote(slot.plain_votes, msg.digest, from);
  if (msg.digest != slot.digest) return;
  if (static_cast<int>(slot.plain_votes.Count(slot.digest)) >=
      config_.CommitQuorum(config_.initial_mode)) {
    slot.commit_sent = true;
    PaxosCommitMsg commit{view_, msg.seq, slot.digest};
    SendToMany(config_.AllReplicas(), commit.ToMessage());
    if (!slot.committed()) CommitSlot(msg.seq, slot, /*send_replies=*/true);
  }
}

void PaxosReplica::HandleCommit(PrincipalId from, PaxosCommitMsg msg) {
  if (msg.view > view_ && config_.FlatPrimary(msg.view) == from) {
    EnterView(msg.view);
  }
  if (from != config_.FlatPrimary(msg.view)) return;
  if (msg.seq <= ckpt_.stable_seq()) return;
  SlotCore* found = log_.Find(msg.seq);
  if (found == nullptr || !found->has_batch()) {
    // COMMIT outran the ACCEPT (jitter reordering); remember it.
    log_.Slot(msg.seq).commit_seen = true;
    return;
  }
  SlotCore& slot = *found;
  if (slot.committed() || msg.digest != slot.digest) return;
  CommitSlot(msg.seq, slot, /*send_replies=*/false);
}

void PaxosReplica::CommitSlot(uint64_t seq, SlotCore& slot,
                              bool send_replies) {
  std::vector<ExecutedRequest> executed = commits().Commit(log_, seq, slot);
  for (const ExecutedRequest& ex : executed) {
    if (send_replies && !(ex.duplicate && ex.result.empty())) {
      SendReply(ex);
    }
  }
  MaybeCheckpoint();
  RestartOrDisarmViewTimer();
  if (IsLeader() && !in_view_change_) TryPropose();
}

void PaxosReplica::SendReply(const ExecutedRequest& executed) {
  Reply reply;
  reply.mode = 0;
  reply.view = view_;
  reply.timestamp = executed.timestamp;
  reply.replica = id_;
  reply.result = executed.result;
  reply.Sign(signer_);
  ChargeMac();  // crash model: replies carry MACs, not signatures
  SendTo(executed.client, reply.ToMessage());
}

// ---------------------------------------------------------------------------
// Checkpoint wire types (the flow itself is CheckpointingReplica)
// ---------------------------------------------------------------------------

void PaxosReplica::MulticastCheckpoint(CheckpointMsg& msg) {
  PaxosCheckpointMsg announce{msg.seq, msg.state_digest};
  SendToMany(config_.AllReplicas(), announce.ToMessage());
}

void PaxosReplica::HandleCheckpoint(PrincipalId from, PaxosCheckpointMsg msg) {
  if (msg.seq <= ckpt_.stable_seq()) return;
  // The channel authenticates the sender; the vote itself is unsigned.
  AcceptCheckpointVote(CheckpointMsg{msg.seq, msg.digest, from, Signature()});
}

void PaxosReplica::HandleStateRequest(PrincipalId from, StateRequestMsg msg) {
  // Serve the newest snapshot we hold: a buffered (not yet stable) one beats
  // the stable one. In the crash model our own claim is trustworthy.
  uint64_t seq = ckpt_.stable_seq();
  const Digest* digest = &ckpt_.stable_digest();
  const Bytes* snapshot = &ckpt_.stable_snapshot();
  CheckpointTracker::Buffered buffered;
  if (ckpt_.LatestBuffered(&buffered) && buffered.seq > seq) {
    seq = buffered.seq;
    digest = buffered.digest;
    snapshot = buffered.snapshot;
  }
  if (snapshot->empty() || seq <= msg.last_executed) return;
  PaxosStateResponseMsg response{seq, *digest, *snapshot};
  SendTo(from, response.ToMessage());
}

void PaxosReplica::HandleStateResponse(PrincipalId from,
                                       PaxosStateResponseMsg msg) {
  (void)from;
  if (msg.seq <= exec_.last_executed()) return;
  InstallSnapshot(msg.seq, msg.digest, CheckpointCert::Genesis(),
                  std::move(msg.snapshot));
}

void PaxosReplica::OnDurableRestore(const RecoveredImage& image) {
  // Rejoin in the last durably-entered view: acking in an older view after
  // a restart could contradict the pre-crash incarnation's votes.
  if (image.has_view) view_ = image.view;
  CheckpointingReplica::OnDurableRestore(image);
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

void PaxosReplica::ArmViewTimer() {
  if (view_timer_ != 0 || in_view_change_) return;
  // Do not count our own CPU backlog against the primary (see the SeeMoRe
  // replica for the full rationale: timers that ignore post-view-change
  // re-agreement work livelock the cluster).
  view_timer_ = StartTimer(current_vc_timeout_ + CpuBacklog(), [this] {
    view_timer_ = 0;
    StartViewChange(view_ + 1);
  });
}

void PaxosReplica::RestartOrDisarmViewTimer() {
  CancelTimer(view_timer_);
  current_vc_timeout_ = config_.view_change_timeout;
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

void PaxosReplica::StartViewChange(uint64_t new_view) {
  if (new_view <= view_ || (in_view_change_ && new_view <= vc_target_)) return;
  in_view_change_ = true;
  vc_target_ = new_view;
  ++stats_.view_changes_started;
  CancelTimer(view_timer_);

  ViewChangeRecord record;
  record.stable_seq = ckpt_.stable_seq();
  PaxosViewChangeMsg msg;
  msg.new_view = new_view;
  msg.stable_seq = ckpt_.stable_seq();
  log_.ForEachAscending([&](uint64_t seq, const SlotCore& slot) {
    if (!slot.has_batch()) return;
    record.entries[seq] = {slot.view, slot.batch};
    PaxosVcEntry entry;
    entry.seq = seq;
    entry.view = slot.view;
    entry.batch = slot.batch;
    msg.entries.push_back(std::move(entry));
  });
  SendToMany(config_.AllReplicas(), msg.ToMessage());

  vc_msgs_[new_view][id_] = std::move(record);
  if (config_.FlatPrimary(new_view) == id_) MaybeFormNewView(new_view);

  // Escalate if this view change stalls (next leader may be dead too).
  current_vc_timeout_ = std::min<SimTime>(current_vc_timeout_ * 2, Seconds(2));
  view_timer_ = StartTimer(current_vc_timeout_ + CpuBacklog(), [this] {
    view_timer_ = 0;
    if (in_view_change_) StartViewChange(vc_target_ + 1);
  });
}

void PaxosReplica::HandleViewChange(PrincipalId from, PaxosViewChangeMsg msg) {
  if (msg.new_view <= view_) return;
  ViewChangeRecord record;
  record.stable_seq = msg.stable_seq;
  for (PaxosVcEntry& entry : msg.entries) {
    record.entries[entry.seq] = {entry.view, std::move(entry.batch)};
  }
  const uint64_t new_view = msg.new_view;
  vc_msgs_[new_view][from] = std::move(record);
  // Join the view change (crash model: a peer's suspicion is honest).
  StartViewChange(new_view);
  if (config_.FlatPrimary(new_view) == id_) MaybeFormNewView(new_view);
}

void PaxosReplica::MaybeFormNewView(uint64_t new_view) {
  auto it = vc_msgs_.find(new_view);
  if (it == vc_msgs_.end()) return;
  const auto& records = it->second;
  if (static_cast<int>(records.size()) < config_.f + 1) return;
  if (view_ >= new_view) return;

  // Highest stable checkpoint and re-proposal set: per seq, the batch
  // accepted in the highest view wins (Paxos invariant); holes get no-ops.
  uint64_t max_stable = 0;
  PrincipalId best_helper = id_;
  uint64_t max_seq = 0;
  for (const auto& [sender, record] : records) {
    if (record.stable_seq > max_stable) {
      max_stable = record.stable_seq;
      best_helper = sender;
    }
    if (!record.entries.empty()) {
      max_seq = std::max(max_seq, record.entries.rbegin()->first);
    }
  }

  std::map<uint64_t, std::pair<uint64_t, Batch>> chosen;
  for (const auto& [sender, record] : records) {
    for (const auto& [seq, entry] : record.entries) {
      if (seq <= max_stable) continue;
      auto existing = chosen.find(seq);
      if (existing == chosen.end() || entry.first > existing->second.first) {
        chosen[seq] = entry;
      }
    }
  }

  PaxosNewViewMsg nv;
  nv.new_view = new_view;
  nv.stable_seq = max_stable;
  for (uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    auto chosen_it = chosen.find(seq);
    Batch batch =
        chosen_it != chosen.end() ? chosen_it->second.second : Batch::Noop();
    PaxosNewViewEntry entry;
    entry.seq = seq;
    entry.batch = batch.Encode();
    nv.entries.push_back(std::move(entry));
  }
  SendToMany(config_.AllReplicas(), nv.ToMessage());

  // Install locally: the new leader treats every entry as freshly accepted.
  EnterView(new_view);
  if (max_stable > exec_.last_executed() && best_helper != id_) {
    RequestStateFrom(best_helper);
  }
  for (uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    const SlotCore* prior = log_.Find(seq);
    const bool was_committed =
        (prior != nullptr && prior->committed()) || exec_.HasCommitted(seq);
    // Fresh slot: stale ACK sets must not count toward the new view.
    SlotCore& slot = log_.ResetSlot(seq);
    auto chosen_it = chosen.find(seq);
    slot.batch =
        chosen_it != chosen.end() ? chosen_it->second.second : Batch::Noop();
    log_.SetHasBatch(slot, true);
    slot.digest = slot.batch.ComputeDigest();
    slot.view = new_view;
    log_.SetCommitted(slot, was_committed);
    RecordVote(slot.plain_votes, slot.digest, id_);
  }
  ckpt_.AdvanceFloor(max_stable);
  pipeline_.AdvanceNextSeq(max_seq + 1);
  pipeline_.AdvanceNextSeq(ckpt_.stable_seq() + 1);
  ++stats_.view_changes_completed;
  TryPropose();
}

void PaxosReplica::HandleNewView(PrincipalId from, PaxosNewViewMsg msg) {
  if (config_.FlatPrimary(msg.new_view) != from || msg.new_view <= view_) {
    return;
  }
  const uint64_t new_view = msg.new_view;

  EnterView(new_view);
  ++stats_.view_changes_completed;
  for (PaxosNewViewEntry& wire_entry : msg.entries) {
    if (wire_entry.seq <= ckpt_.stable_seq()) continue;
    Result<Batch> batch_or = Batch::Decode(wire_entry.batch);
    if (!batch_or.ok()) return;
    // Already-committed slots still get ACKed: the new leader needs f+1
    // ACKs even for entries some replicas committed before the view change.
    const SlotCore* prior = log_.Find(wire_entry.seq);
    const bool was_committed = (prior != nullptr && prior->committed()) ||
                               exec_.HasCommitted(wire_entry.seq);
    SlotCore& slot = log_.ResetSlot(wire_entry.seq);
    slot.batch = std::move(batch_or).value();
    log_.SetHasBatch(slot, true);
    ChargeHash(wire_entry.batch.size());
    slot.digest = FrameFieldDigest(wire_entry.batch, wire_entry.batch_offset);
    slot.view = new_view;
    log_.SetCommitted(slot, was_committed);

    PaxosAckMsg ack{new_view, wire_entry.seq, slot.digest};
    SendTo(from, ack.ToMessage());
  }
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

void PaxosReplica::EnterView(uint64_t view) {
  view_ = view;
  ClearProposerQuiescence();
  durable().NoteView(view, 0);
  in_view_change_ = false;
  vc_target_ = 0;
  CancelTimer(view_timer_);
  // Grace period: the re-proposed log needs a full re-agreement round under
  // post-view-change backlog before anyone may suspect the new primary.
  current_vc_timeout_ = config_.view_change_timeout * 3;
  // A view change may have nooped requests the admission table says were
  // handled; client retransmissions must be accepted afresh (the execution
  // engine still deduplicates anything that really committed).
  pipeline_.ForgetAdmissions();
  // Uncommitted slots are superseded by the NEW-VIEW's re-proposals (which
  // the caller installs after this); keeping them would leave phantom
  // "uncommitted work" that re-arms the view timer forever.
  log_.EraseUncommitted();
  for (auto it = vc_msgs_.begin(); it != vc_msgs_.end();) {
    it = it->first <= view ? vc_msgs_.erase(it) : std::next(it);
  }
}

}  // namespace seemore
