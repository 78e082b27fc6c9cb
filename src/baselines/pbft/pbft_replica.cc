#include "baselines/pbft/pbft_replica.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/logging.h"

namespace seemore {

PbftCoreReplica::PbftCoreReplica(Transport* transport, TimerService* timers,
                                 const KeyStore* keystore, CryptoMemo* memo,
                                 PrincipalId id, const ClusterConfig& config,
                                 std::unique_ptr<StateMachine> state_machine,
                                 const CostModel& costs,
                                 const PbftQuorums& quorums)
    : ReplicaBase(transport, timers, keystore, memo, id, config,
                  std::move(state_machine), costs),
      quorums_(quorums),
      window_(static_cast<uint64_t>(config.checkpoint_period) * 2 +
              static_cast<uint64_t>(config.pipeline_max)),
      log_(window_),
      pipeline_(config.batch_max, config.pipeline_max),
      ckpt_(config.checkpoint_period) {
  current_vc_timeout_ = config_.view_change_timeout;
}

void PbftCoreReplica::HandleMessage(PrincipalId from, const Payload& frame) {
  Decoder dec = FrameDecoder(frame);
  const uint8_t tag = dec.GetU8();
  if (!dec.ok()) return;
  ChargeMac();  // channel authentication
  // Protocol-internal messages are only legitimate on replica channels.
  if (tag != kMsgRequest && !IsReplicaId(from)) return;
  switch (tag) {
    case kMsgRequest:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandleRequest);
      break;
    case kPbftPrePrepare:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandlePrePrepare);
      break;
    case kPbftPrepare:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandlePrepare);
      break;
    case kPbftCommit:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandleCommit);
      break;
    case kPbftCheckpoint:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandleCheckpoint);
      break;
    case kPbftViewChange:
      // The body signature covers the whole frame; validate from the raw
      // bytes (ParseViewChange runs the typed decode internally; the record
      // keeps an owned copy regardless, so copy out of the shared frame).
      HandleViewChange(from, frame.ToBytes());
      break;
    case kPbftNewView: {
      Result<PbftNewViewMsg> msg = PbftNewViewMsg::DecodeFrom(
          dec, static_cast<uint64_t>(config_.n()), window_ + 1);
      if (msg.ok()) HandleNewView(from, std::move(msg).value());
      break;
    }
    case kPbftStateRequest:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandleStateRequest);
      break;
    case kPbftStateResponse:
      DispatchTyped(this, from, dec, &PbftCoreReplica::HandleStateResponse);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Normal case
// ---------------------------------------------------------------------------

void PbftCoreReplica::HandleRequest(PrincipalId from, Request request) {
  // Channel authentication (§3.1): a request arriving directly from a
  // client channel must name that client. Without this, a rogue client
  // could impersonate another and poison its timestamp sequence — the
  // crash-model baseline has no signatures to catch it otherwise.
  if (IsClientPrincipal(from) && from != request.client) return;

  if (exec_.SeenTimestamp(request.client, request.timestamp)) {
    auto cached = exec_.CachedReply(request.client, request.timestamp);
    if (cached.has_value()) {
      Reply reply;
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

  ChargeVerify();  // client signature
  if (!request.VerifySignature(*keystore_)) return;

  if (IsPrimary() && !in_view_change_) {
    PrimaryEnqueue(std::move(request));
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

void PbftCoreReplica::PrimaryEnqueue(Request request) {
  if (!pipeline_.Admit(request)) return;
  pipeline_.Enqueue(std::move(request));
  TryPropose();
}

void PbftCoreReplica::TryPropose() {
  if (proposer_quiesced()) return;
  while (pipeline_.CanOpen(log_.UncommittedSlots()) &&
         pipeline_.next_seq() <= ckpt_.stable_seq() + window_) {
    auto [seq, batch] = pipeline_.Open();

    if (HasByz(kByzEquivocate) && batch.size() >= 1) {
      // Equivocating primary: propose different batches to different halves
      // of the cluster. Honest replicas will fail to assemble a prepare
      // quorum for either value; the view change recovers liveness.
      Batch alt;
      alt.requests.assign(batch.requests.rbegin(), batch.requests.rend());
      if (batch.size() == 1) alt = Batch::Noop();  // reversal is a no-op
      PbftPrePrepareMsg pp_a{view_, seq, Digest(), Signature(), batch.Encode()};
      PbftPrePrepareMsg pp_b{view_, seq, Digest(), Signature(), alt.Encode()};
      pp_a.digest = Digest::Of(pp_a.batch);
      pp_b.digest = Digest::Of(pp_b.batch);
      pp_a.sig = signer_.Sign(pp_a.Header());
      pp_b.sig = signer_.Sign(pp_b.Header());
      ChargeSign(2);
      const Bytes msg_a = pp_a.ToMessage();
      const Bytes msg_b = pp_b.ToMessage();
      const std::vector<PrincipalId> all = config_.AllReplicas();
      for (size_t i = 0; i < all.size(); ++i) {
        if (all[i] == id_) continue;
        SendTo(all[i], i < all.size() / 2 ? msg_a : msg_b);
      }
      continue;  // keep no honest slot; we are lying anyway
    }

    const Bytes encoded = batch.Encode();
    EmitPrePrepare(seq, batch, encoded);
  }
}

void PbftCoreReplica::EmitPrePrepare(uint64_t seq, const Batch& batch,
                                     const Bytes& encoded) {
  ChargeHash(encoded.size());
  PbftPrePrepareMsg pp{view_, seq, Digest::Of(encoded), Signature(), encoded};
  ChargeSign();
  pp.sig = signer_.Sign(pp.Header());

  SlotCore& slot = log_.Slot(seq);
  slot.batch = batch;
  log_.SetHasBatch(slot, true);
  slot.digest = pp.digest;
  slot.view = view_;
  slot.primary_sig = pp.sig;

  SendToMany(config_.AllReplicas(), pp.ToMessage());
}

void PbftCoreReplica::HandlePrePrepare(PrincipalId from, PbftPrePrepareMsg msg) {
  if (msg.view != view_ || in_view_change_) return;
  if (from != config_.FlatPrimary(view_)) return;
  if (msg.seq <= ckpt_.stable_seq() || msg.seq > ckpt_.stable_seq() + window_) {
    return;
  }

  // Primary signature, batch digest and per-request client signatures are
  // pure functions of the multicast frame: real crypto runs once per
  // process (memoized on buffer identity); every receiver still charges the
  // full simulated cost.
  ChargeVerify();
  if (!FrameVerifyMemoized(from, kPbftPrePrepare, [&] {
        return msg.VerifySignature(*keystore_, from);
      })) {
    return;
  }
  ChargeHash(msg.batch.size());
  if (FrameFieldDigest(msg.batch, msg.batch_offset) != msg.digest) return;
  Result<Batch> batch_or = Batch::Decode(msg.batch);
  if (!batch_or.ok()) return;
  Batch batch = std::move(batch_or).value();
  // Authenticate every client request in the batch.
  ChargeVerify(static_cast<int>(batch.size()));
  for (size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& request = batch.requests[i];
    if (!FrameVerifyMemoized(
            request.client,
            (static_cast<uint32_t>(kPbftPrePrepare) << 16) |
                static_cast<uint32_t>(i),
            [&] { return request.VerifySignature(*keystore_); })) {
      return;
    }
  }

  SlotCore& slot = log_.Slot(msg.seq);
  if (slot.has_batch()) {
    // Equivocation defense: at most one pre-prepare per (view, seq).
    if (slot.view == msg.view && slot.digest != msg.digest) return;
    if (slot.digest == msg.digest) return;  // duplicate
  }
  slot.batch = std::move(batch);
  log_.SetHasBatch(slot, true);
  slot.digest = msg.digest;
  slot.view = msg.view;
  slot.primary_sig = msg.sig;

  SendPrepare(msg.seq, slot);
  ArmViewTimer();
  CheckPrepared(msg.seq, slot);
}

void PbftCoreReplica::SendPrepare(uint64_t seq, SlotCore& slot) {
  Digest vote_digest = slot.digest;
  if (HasByz(kByzWrongVotes)) vote_digest.data()[0] ^= 0xff;
  ChargeSign();
  PbftPrepareMsg prepare;
  prepare.view = view_;
  prepare.seq = seq;
  prepare.digest = vote_digest;
  prepare.voter = id_;
  prepare.sig = signer_.Sign(prepare.Header(PbftPrepareMsg::kDomain));
  SendToMany(config_.AllReplicas(), prepare.ToMessage());
  RecordVote(slot.accept_votes, vote_digest, id_, prepare.sig);
}

void PbftCoreReplica::HandlePrepare(PrincipalId from, PbftPrepareMsg msg) {
  if (msg.view != view_ || in_view_change_) return;
  if (msg.voter != from || !IsReplicaId(msg.voter)) return;
  if (msg.seq <= ckpt_.stable_seq() || msg.seq > ckpt_.stable_seq() + window_) {
    return;
  }
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.voter, kPbftPrepare,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  SlotCore& slot = log_.Slot(msg.seq);
  RecordVote(slot.accept_votes, msg.digest, msg.voter, msg.sig);
  CheckPrepared(msg.seq, slot);
}

void PbftCoreReplica::CheckPrepared(uint64_t seq, SlotCore& slot) {
  if (slot.prepared || !slot.has_batch()) return;
  if (static_cast<int>(slot.accept_votes.Count(slot.digest)) <
      quorums_.agreement) {
    return;
  }
  slot.prepared = true;
  if (!slot.commit_sent) {
    slot.commit_sent = true;
    Digest vote_digest = slot.digest;
    if (HasByz(kByzWrongVotes)) vote_digest.data()[0] ^= 0xff;
    ChargeSign();
    PbftCommitMsg commit;
    commit.view = view_;
    commit.seq = seq;
    commit.digest = vote_digest;
    commit.voter = id_;
    commit.sig = signer_.Sign(commit.Header(PbftCommitMsg::kDomain));
    SendToMany(config_.AllReplicas(), commit.ToMessage());
    RecordVote(slot.commit_votes, vote_digest, id_, commit.sig);
  }
  CheckCommitted(seq, slot);
}

void PbftCoreReplica::HandleCommit(PrincipalId from, PbftCommitMsg msg) {
  if (msg.view != view_ || in_view_change_) return;
  if (msg.voter != from || !IsReplicaId(msg.voter)) return;
  if (msg.seq <= ckpt_.stable_seq() || msg.seq > ckpt_.stable_seq() + window_) {
    return;
  }
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.voter, kPbftCommit,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  SlotCore& slot = log_.Slot(msg.seq);
  RecordVote(slot.commit_votes, msg.digest, msg.voter, msg.sig);
  CheckCommitted(msg.seq, slot);
}

void PbftCoreReplica::CheckCommitted(uint64_t seq, SlotCore& slot) {
  if (slot.committed() || !slot.prepared) return;
  if (static_cast<int>(slot.commit_votes.Count(slot.digest)) <
      quorums_.commit) {
    return;
  }
  std::vector<ExecutedRequest> executed = commits().Commit(log_, seq, slot);
  for (const ExecutedRequest& ex : executed) {
    if (!(ex.duplicate && ex.result.empty())) SendReply(ex);
  }
  MaybeCheckpoint();
  RestartOrDisarmViewTimer();
  if (IsPrimary() && !in_view_change_) TryPropose();
}

void PbftCoreReplica::SendReply(const ExecutedRequest& executed) {
  Reply reply;
  reply.view = view_;
  reply.timestamp = executed.timestamp;
  reply.replica = id_;
  reply.result = executed.result;
  if (HasByz(kByzLieToClients) && !reply.result.empty()) {
    reply.result[0] ^= 0xff;
  }
  reply.Sign(signer_);
  ChargeMac();
  SendTo(executed.client, reply.ToMessage());
}

// ---------------------------------------------------------------------------
// Checkpoints / state transfer
// ---------------------------------------------------------------------------

void PbftCoreReplica::MaybeCheckpoint() {
  const uint64_t executed = exec_.last_executed();
  if (!ckpt_.Due(executed)) return;
  ckpt_.NoteTaken(executed);
  Bytes snapshot = exec_.Snapshot();
  ChargeHash(snapshot.size());
  const Digest digest = Digest::Of(snapshot);
  durable().SaveSnapshot(executed, digest, snapshot);
  ckpt_.Buffer(executed, digest, std::move(snapshot));

  CheckpointMsg msg;
  msg.seq = executed;
  msg.state_digest = digest;
  msg.replica = id_;
  ChargeSign();
  msg.Sign(signer_);
  SendToMany(config_.AllReplicas(), FrameMessage(kPbftCheckpoint, msg));
  CountCheckpointVote(msg);
}

void PbftCoreReplica::HandleCheckpoint(PrincipalId from, CheckpointMsg msg) {
  if (msg.replica != from || !IsReplicaId(from)) return;
  if (msg.seq <= ckpt_.stable_seq()) return;
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.replica, kPbftCheckpoint,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  CountCheckpointVote(msg);
  // If many peers checkpoint far ahead of us we fell behind; the vote path
  // (quorum then AdvanceStable) normally handles it, but when our own vote
  // can never arrive (we are stuck), fetch once the gap exceeds a period.
  if (msg.seq > exec_.last_executed() +
                    static_cast<uint64_t>(config_.checkpoint_period)) {
    RequestStateFrom(msg.replica);
  }
}

void PbftCoreReplica::CountCheckpointVote(const CheckpointMsg& msg) {
  const auto& signers = ckpt_.AddVote(msg);
  if (static_cast<int>(signers.size()) >= quorums_.checkpoint) {
    CheckpointCert cert;
    PrincipalId helper = id_;
    for (const auto& [signer, m] : signers) {
      cert.Add(m);
      if (signer != id_) helper = signer;
    }
    AdvanceStable(msg.seq, msg.state_digest, std::move(cert), helper);
  }
}

void PbftCoreReplica::AdvanceStable(uint64_t seq, const Digest& digest,
                                    CheckpointCert cert, PrincipalId helper) {
  if (seq <= ckpt_.stable_seq()) return;
  durable().NoteStable(seq, cert);
  const bool installed = ckpt_.Advance(seq, digest, std::move(cert));
  if (!installed && exec_.last_executed() < seq && helper != id_) {
    RequestStateFrom(helper);
  }
  log_.Reclaim(seq);
  NoteCheckpointGc();  // scratch arena rewinds at the next message boundary
  if (IsPrimary() && !in_view_change_) TryPropose();  // window may have moved
}

void PbftCoreReplica::RequestStateFrom(PrincipalId target) {
  if (target == id_) return;
  if (now() - last_state_request_ < Millis(20)) return;
  last_state_request_ = now();
  ++stats_.state_transfers;
  StateRequestMsg request{exec_.last_executed()};
  SendTo(target, request.ToMessage(kPbftStateRequest));
}

void PbftCoreReplica::HandleStateRequest(PrincipalId from, StateRequestMsg msg) {
  if (!ckpt_.has_stable_snapshot() ||
      ckpt_.stable_seq() <= msg.last_executed) {
    return;
  }
  StateResponseMsg response;
  response.cert = ckpt_.stable_cert();
  response.snapshot = ckpt_.stable_snapshot();
  SendTo(from, response.ToMessage(kPbftStateResponse));
}

void PbftCoreReplica::HandleStateResponse(PrincipalId from,
                                          StateResponseMsg msg) {
  (void)from;
  CheckpointCert cert = std::move(msg.cert);
  Bytes snapshot = std::move(msg.snapshot);
  if (cert.IsGenesis() || cert.seq() <= exec_.last_executed()) return;
  ChargeVerify(static_cast<int>(cert.msgs().size()));
  if (!cert.Verify(*keystore_, quorums_.checkpoint,
                   [this](PrincipalId r) { return IsReplicaId(r); })) {
    return;
  }
  ChargeHash(snapshot.size());
  if (Digest::Of(snapshot) != cert.state_digest()) return;
  const uint64_t seq = cert.seq();
  if (!exec_.Restore(snapshot, seq).ok()) return;
  const Digest digest = cert.state_digest();
  // Persist the transferred checkpoint too: a restart must not come back
  // below a state the replica already executed past.
  durable().SaveSnapshot(seq, digest, snapshot);
  durable().NoteStable(seq, cert);
  ckpt_.InstallRestored(seq, digest, std::move(cert), std::move(snapshot));
  log_.Reclaim(seq);
  NoteCheckpointGc();  // scratch arena rewinds at the next message boundary
}

void PbftCoreReplica::OnDurableRestore(const RecoveredImage& image) {
  // Rejoin in the last durably-entered view: voting in an older view after
  // a restart could double-vote against the pre-crash incarnation.
  if (image.has_view) view_ = image.view;
  // The newest CERTIFIED checkpoint restores as stable; newer certless
  // snapshots re-enter the tracker as buffered, exactly as on the cutting
  // path, so the stability vote flow resumes where it stopped.
  if (const storage::RecoveredSnapshot* stable = image.LatestStable()) {
    ckpt_.InstallRestored(stable->seq, stable->digest, stable->cert,
                          stable->bytes);
    log_.Reclaim(stable->seq);
  }
  for (const auto& snap : image.snapshots) {
    if (snap.seq > ckpt_.stable_seq()) {
      ckpt_.Buffer(snap.seq, snap.digest, snap.bytes);
    }
  }
  if (const storage::RecoveredSnapshot* latest = image.Latest()) {
    if (latest->seq > ckpt_.last_checkpoint_seq()) {
      ckpt_.NoteTaken(latest->seq);
    }
  }
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

void PbftCoreReplica::ArmViewTimer() {
  if (view_timer_ != 0 || in_view_change_) return;
  // Do not count our own CPU backlog against the primary (see the SeeMoRe
  // replica for the full rationale: timers that ignore post-view-change
  // re-agreement work livelock the cluster).
  view_timer_ = StartTimer(current_vc_timeout_ + CpuBacklog(), [this] {
    view_timer_ = 0;
    StartViewChange(view_ + 1);
  });
}

void PbftCoreReplica::RestartOrDisarmViewTimer() {
  CancelTimer(view_timer_);
  current_vc_timeout_ = config_.view_change_timeout;
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

void PbftCoreReplica::StartViewChange(uint64_t new_view) {
  if (new_view <= view_ || (in_view_change_ && new_view <= vc_target_)) return;
  in_view_change_ = true;
  vc_target_ = new_view;
  ++stats_.view_changes_started;
  CancelTimer(view_timer_);

  std::vector<PreparedProof> proofs;
  const uint64_t stable = ckpt_.stable_seq();
  log_.ForEachAscending([&](uint64_t seq, const SlotCore& slot) {
    if (!slot.prepared || seq <= stable) return;
    PreparedProof proof;
    proof.view = slot.view;
    proof.seq = seq;
    proof.digest = slot.digest;
    proof.batch = slot.batch;
    proof.primary_sig = slot.primary_sig;
    proof.prepares =
        slot.accept_votes.SignaturesFor(slot.digest).SortedEntries();
    proofs.push_back(std::move(proof));
  });
  ChargeSign();
  const Bytes raw = PbftViewChangeMsg::Build(new_view, stable,
                                             ckpt_.stable_cert(), proofs,
                                             signer_);
  SendToMany(config_.AllReplicas(), raw);

  Result<ViewChangeRecord> record = ParseViewChange(raw, id_);
  if (record.ok()) {
    vc_msgs_[new_view][id_] = std::move(record).value();
  }
  if (config_.FlatPrimary(new_view) == id_) MaybeFormNewView(new_view);

  current_vc_timeout_ = std::min<SimTime>(current_vc_timeout_ * 2, Seconds(2));
  view_timer_ = StartTimer(current_vc_timeout_ + CpuBacklog(), [this] {
    view_timer_ = 0;
    if (in_view_change_) StartViewChange(vc_target_ + 1);
  });
}

Result<PbftCoreReplica::ViewChangeRecord> PbftCoreReplica::ParseViewChange(
    const Bytes& raw, PrincipalId from) {
  SEEMORE_ASSIGN_OR_RETURN(PbftViewChangeMsg msg,
                           PbftViewChangeMsg::DecodeFrom(raw, window_ + 1));
  return ValidateViewChange(std::move(msg), raw, from);
}

Result<PbftCoreReplica::ViewChangeRecord> PbftCoreReplica::ValidateViewChange(
    PbftViewChangeMsg msg, const Bytes& raw, PrincipalId from) {
  if (msg.sender != from) return Status::Corruption("sender mismatch");
  if (!msg.VerifySignature(*keystore_, raw)) {
    return Status::Corruption("bad VC signature");
  }
  ViewChangeRecord record;
  record.raw = raw;
  record.stable_seq = msg.stable_seq;
  record.cert = std::move(msg.cert);
  // Validate the embedded certificates now so the new-view computation can
  // trust every stored record.
  if (!record.cert.Verify(*keystore_, quorums_.checkpoint,
                          [this](PrincipalId r) { return IsReplicaId(r); })) {
    return Status::Corruption("bad checkpoint cert in VC");
  }
  for (PreparedProof& proof : msg.proofs) {
    if (proof.seq <= record.stable_seq) {
      return Status::Corruption("inconsistent proof seq");
    }
    if (!proof.Verify(*keystore_, config_.FlatPrimary(proof.view),
                      quorums_.agreement,
                      [this](PrincipalId r) { return IsReplicaId(r); })) {
      return Status::Corruption("invalid prepared proof");
    }
    const uint64_t seq = proof.seq;
    if (!record.proofs.emplace(seq, std::move(proof)).second) {
      return Status::Corruption("duplicate proof seq");
    }
  }
  return record;
}

void PbftCoreReplica::HandleViewChange(PrincipalId from, const Bytes& raw) {
  // Peek the target view before paying full validation.
  const uint64_t new_view = PbftViewChangeMsg::PeekNewView(raw);
  if (new_view <= view_) return;
  // Full parse + signature + certificate verification.
  ChargeVerify(2);
  Result<ViewChangeRecord> record_or = ParseViewChange(raw, from);
  if (!record_or.ok()) return;
  vc_msgs_[new_view][from] = std::move(record_or).value();
  MaybeJoinViewChange();
  if (config_.FlatPrimary(new_view) == id_) MaybeFormNewView(new_view);
}

void PbftCoreReplica::MaybeJoinViewChange() {
  // Join the lowest view > view_ for which vc_join distinct replicas have
  // asked — prevents a lone Byzantine node from forcing view changes while
  // guaranteeing we follow the honest majority.
  for (const auto& [target, records] : vc_msgs_) {
    if (target <= view_) continue;
    if (static_cast<int>(records.size()) >= quorums_.vc_join &&
        (!in_view_change_ || target > vc_target_)) {
      StartViewChange(target);
      return;
    }
  }
}

std::pair<uint64_t, std::map<uint64_t, PbftCoreReplica::Proposal>>
PbftCoreReplica::ComputeNewViewProposals(
    const std::map<PrincipalId, ViewChangeRecord>& records) const {
  uint64_t max_stable = 0;
  uint64_t max_seq = 0;
  for (const auto& [sender, record] : records) {
    max_stable = std::max(max_stable, record.stable_seq);
    if (!record.proofs.empty()) {
      max_seq = std::max(max_seq, record.proofs.rbegin()->first);
    }
  }
  std::map<uint64_t, Proposal> proposals;
  std::map<uint64_t, uint64_t> proposal_views;
  for (const auto& [sender, record] : records) {
    for (const auto& [seq, proof] : record.proofs) {
      if (seq <= max_stable) continue;
      auto it = proposal_views.find(seq);
      if (it == proposal_views.end() || proof.view > it->second) {
        proposal_views[seq] = proof.view;
        proposals[seq] = Proposal{proof.digest, proof.batch};
      }
    }
  }
  // Fill holes with no-ops.
  for (uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    if (proposals.count(seq) == 0) {
      Batch noop = Batch::Noop();
      proposals[seq] = Proposal{noop.ComputeDigest(), std::move(noop)};
    }
  }
  return {max_stable, std::move(proposals)};
}

void PbftCoreReplica::MaybeFormNewView(uint64_t new_view) {
  if (view_ >= new_view) return;
  auto it = vc_msgs_.find(new_view);
  if (it == vc_msgs_.end()) return;
  const auto& records = it->second;
  if (static_cast<int>(records.size()) < quorums_.view_change) return;

  auto [max_stable, proposals] = ComputeNewViewProposals(records);

  PbftNewViewMsg nv;
  nv.new_view = new_view;
  for (const auto& [sender, record] : records) {
    nv.view_changes.push_back(record.raw);
  }
  for (auto& [seq, proposal] : proposals) {
    ChargeSign();
    PbftNewViewEntry entry;
    entry.seq = seq;
    entry.digest = proposal.digest;
    entry.sig = signer_.Sign(
        ProposalHeader(kDomainPrePrepare, 0, new_view, seq, proposal.digest));
    nv.entries.push_back(std::move(entry));
  }
  SendToMany(config_.AllReplicas(), nv.ToMessage());

  // Install locally.
  PrincipalId helper = id_;
  for (const auto& [sender, record] : records) {
    if (record.stable_seq == max_stable && sender != id_) helper = sender;
  }
  EnterView(new_view);
  ++stats_.view_changes_completed;
  uint64_t max_seq = max_stable;
  for (auto& [seq, proposal] : proposals) {
    max_seq = std::max(max_seq, seq);
    const SlotCore* prior = log_.Find(seq);
    const bool was_committed =
        (prior != nullptr && prior->committed()) || exec_.HasCommitted(seq);
    // Fresh slot: stale votes must not count toward the new view.
    SlotCore& slot = log_.ResetSlot(seq);
    slot.batch = std::move(proposal.batch);
    log_.SetHasBatch(slot, true);
    slot.digest = proposal.digest;
    slot.view = new_view;
    slot.primary_sig = signer_.Sign(
        ProposalHeader(kDomainPrePrepare, 0, new_view, seq, proposal.digest));
    log_.SetCommitted(slot, was_committed);
  }
  if (max_stable > ckpt_.stable_seq() && max_stable > exec_.last_executed() &&
      helper != id_) {
    RequestStateFrom(helper);
  }
  pipeline_.OverrideNextSeq(max_seq + 1);
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
  TryPropose();
}

void PbftCoreReplica::HandleNewView(PrincipalId from, PbftNewViewMsg msg) {
  const uint64_t new_view = msg.new_view;
  if (config_.FlatPrimary(new_view) != from) return;
  if (new_view <= view_) return;

  // Re-validate the embedded view-change quorum.
  std::map<PrincipalId, ViewChangeRecord> records;
  ChargeVerify(static_cast<int>(msg.view_changes.size()) * 2);
  for (const Bytes& raw : msg.view_changes) {
    // The sender id is part of the signed body; decode it from the frame
    // itself instead of trusting the new primary.
    Result<PbftViewChangeMsg> vc_or =
        PbftViewChangeMsg::DecodeFrom(raw, window_ + 1);
    if (!vc_or.ok()) return;
    if (vc_or.value().new_view != new_view) return;  // VC for another view
    const PrincipalId sender = vc_or.value().sender;
    Result<ViewChangeRecord> record_or =
        ValidateViewChange(std::move(vc_or).value(), raw, sender);
    if (!record_or.ok()) return;
    records[sender] = std::move(record_or).value();
  }
  if (static_cast<int>(records.size()) < quorums_.view_change) return;

  auto [max_stable, proposals] = ComputeNewViewProposals(records);
  if (msg.entries.size() != proposals.size()) return;
  std::set<uint64_t> seen_seqs;
  for (PbftNewViewEntry& entry : msg.entries) {
    // Each proposal must be matched exactly once: a duplicated seq would
    // let a Byzantine primary silently omit a required re-proposal while
    // still passing the size check above.
    if (!seen_seqs.insert(entry.seq).second) return;
    auto expect = proposals.find(entry.seq);
    if (expect == proposals.end() || expect->second.digest != entry.digest) {
      return;  // primary diverged from the deterministic computation
    }
    ChargeVerify();
    if (!keystore_->Verify(from,
                           ProposalHeader(kDomainPrePrepare, 0, new_view,
                                          entry.seq, entry.digest),
                           entry.sig)) {
      return;
    }
  }

  EnterView(new_view);
  ++stats_.view_changes_completed;
  PrincipalId helper = from;
  if (max_stable > exec_.last_executed()) RequestStateFrom(helper);
  for (PbftNewViewEntry& entry : msg.entries) {
    if (entry.seq <= ckpt_.stable_seq()) continue;
    // Already-committed sequence numbers still run the prepare/commit vote
    // exchange so peers that missed them pre-view-change can assemble their
    // quorums; the committed flag prevents re-execution.
    const SlotCore* prior = log_.Find(entry.seq);
    const bool was_committed = (prior != nullptr && prior->committed()) ||
                               exec_.HasCommitted(entry.seq);
    SlotCore& slot = log_.ResetSlot(entry.seq);
    slot.batch = std::move(proposals[entry.seq].batch);
    log_.SetHasBatch(slot, true);
    slot.digest = entry.digest;
    slot.view = new_view;
    slot.primary_sig = entry.sig;
    log_.SetCommitted(slot, was_committed);
    SendPrepare(entry.seq, slot);
    CheckPrepared(entry.seq, slot);
  }
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

void PbftCoreReplica::EnterView(uint64_t view) {
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
  // Uncommitted slots are superseded by the NEW-VIEW the caller installs
  // next; keeping them would re-arm the view timer forever.
  log_.EraseUncommitted();
  for (auto it = vc_msgs_.begin(); it != vc_msgs_.end();) {
    it = it->first <= view ? vc_msgs_.erase(it) : std::next(it);
  }
}

}  // namespace seemore
