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
          {kPaxCheckpoint, kPaxStateRequest, kPaxStateResponse,
           kPaxBatchRequest, kPaxBatchResponse}) {}

void PaxosReplica::HandleProtocolMessage(uint8_t tag, PrincipalId from,
                                         Decoder& dec) {
  switch (tag) {
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
    SendToMany(all_replicas_, accept.ToMessage());
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
  if (msg.view != view_ || !IsPrimary() || in_view_change_) return;
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
    SendToMany(all_replicas_, commit.ToMessage());
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
  FinishCommit(commits().Commit(log_, seq, slot), send_replies);
}

// ---------------------------------------------------------------------------
// Checkpoint wire types (the flow itself is CheckpointingReplica)
// ---------------------------------------------------------------------------

void PaxosReplica::MulticastCheckpoint(CheckpointMsg& msg) {
  PaxosCheckpointMsg announce{msg.seq, msg.state_digest};
  SendToMany(all_replicas_, announce.ToMessage());
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
    if (!slot.has_proposal()) return;
    record.entries[seq] = {slot.view, slot.digest};
    msg.entries.push_back(PaxosVcEntry{seq, slot.view, slot.digest});
  });
  MulticastViewChangeFrame(msg.ToMessage(), msg.entries.size());
  StoreViewChange(new_view, id_, std::move(record));
}

void PaxosReplica::HandleViewChange(PrincipalId from, PaxosViewChangeMsg msg) {
  if (msg.new_view <= view_) return;
  PaxosViewChangeRecord record;
  record.stable_seq = msg.stable_seq;
  for (const PaxosVcEntry& entry : msg.entries) {
    record.entries[entry.seq] = {entry.view, entry.digest};
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
      if (seq > floor) OfferReproposal(chosen, seq, entry.first, entry.second);
    }
  }
  FillWithNoops(chosen, floor, high);
  if (!HoldsBatches(new_view, chosen, records)) return;

  PaxosNewViewMsg nv;
  nv.new_view = new_view;
  nv.stable_seq = floor;
  for (const auto& [seq, value] : chosen) {
    nv.entries.push_back(PaxosNewViewEntry{seq, value.digest});
  }
  MulticastViewChangeFrame(nv.ToMessage(), nv.entries.size());

  // Install locally: the new leader treats every entry as freshly accepted.
  EnterView(new_view);
  if (floor > exec_.last_executed() && helper != id_) RequestStateFrom(helper);
  for (const auto& [seq, value] : chosen) {
    SlotCore& slot = InstallReproposal(seq, value.digest);
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

  const Records vouching = TakeViewChanges(new_view);
  EnterView(new_view);
  ++stats_.view_changes_completed;
  const std::vector<PrincipalId> sources = {from};
  for (const PaxosNewViewEntry& entry : msg.entries) {
    if (entry.seq <= ckpt_.stable_seq()) continue;
    // Already-committed slots still get ACKed: the new leader needs f+1
    // ACKs even for entries some replicas committed before the view change.
    SlotCore& slot =
        InstallReproposal(entry.seq, entry.digest, sources, vouching);
    PaxosAckMsg ack{new_view, entry.seq, slot.digest};
    SendTo(from, ack.ToMessage());
  }
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

void PaxosReplica::ResumeReproposal(uint64_t seq, SlotCore& slot) {
  if (slot.commit_seen && !slot.committed()) {
    CommitSlot(seq, slot, /*send_replies=*/false);
  }
}

}  // namespace seemore
