#include "baselines/paxos/paxos_replica.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {

PaxosReplica::PaxosReplica(Transport* transport, TimerService* timers,
                           const KeyStore* keystore, CryptoMemo* memo,
                           PrincipalId id, const ClusterConfig& config,
                           std::unique_ptr<StateMachine> state_machine,
                           const CostModel& costs)
    : ViewChangingReplica(
          transport, timers, keystore, memo, id, config,
          std::move(state_machine), costs,
          {kPaxCheckpoint, kPaxStateRequest, kPaxStateResponse}) {}

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

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

void PaxosReplica::SendViewChange(uint64_t new_view) {
  PaxosViewChangeRecord record;
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
  StoreViewChange(new_view, id_, std::move(record));
}

void PaxosReplica::HandleViewChange(PrincipalId from, PaxosViewChangeMsg msg) {
  if (msg.new_view <= view_) return;
  PaxosViewChangeRecord record;
  record.stable_seq = msg.stable_seq;
  for (PaxosVcEntry& entry : msg.entries) {
    record.entries[entry.seq] = {entry.view, std::move(entry.batch)};
  }
  AcceptViewChange(msg.new_view, from, std::move(record));
}

void PaxosReplica::FormNewView(uint64_t new_view, const Records& records) {
  // Per seq, the batch accepted in the highest view wins (Paxos invariant);
  // holes get no-ops.
  const auto [floor, helper] = Floor(records);
  uint64_t high = 0;
  Reproposals chosen;
  for (const auto& [sender, record] : records) {
    for (const auto& [seq, entry] : record.entries) {
      high = std::max(high, seq);
      if (seq > floor) {
        OfferReproposal(chosen, seq, entry.first, Digest(), entry.second);
      }
    }
  }
  FillWithNoops(chosen, floor, high);

  PaxosNewViewMsg nv;
  nv.new_view = new_view;
  nv.stable_seq = floor;
  for (const auto& [seq, value] : chosen) {
    PaxosNewViewEntry entry;
    entry.seq = seq;
    entry.batch = value.batch.Encode();
    nv.entries.push_back(std::move(entry));
  }
  SendToMany(config_.AllReplicas(), nv.ToMessage());

  // Install locally: the new leader treats every entry as freshly accepted.
  EnterView(new_view);
  if (floor > exec_.last_executed() && helper != id_) RequestStateFrom(helper);
  for (auto& [seq, value] : chosen) {
    const Digest digest = value.batch.ComputeDigest();
    SlotCore& slot = InstallReproposal(seq, std::move(value.batch), digest);
    RecordVote(slot.plain_votes, slot.digest, id_);
  }
  ckpt_.AdvanceFloor(floor);
  pipeline_.AdvanceNextSeq(high + 1);
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
    ChargeHash(wire_entry.batch.size());
    SlotCore& slot = InstallReproposal(
        wire_entry.seq, std::move(batch_or).value(),
        FrameFieldDigest(wire_entry.batch, wire_entry.batch_offset));
    PaxosAckMsg ack{new_view, wire_entry.seq, slot.digest};
    SendTo(from, ack.ToMessage());
  }
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

}  // namespace seemore
