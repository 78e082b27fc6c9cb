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
    : ViewChangingReplica(
          transport, timers, keystore, memo, id, config,
          std::move(state_machine), costs,
          {kPbftCheckpoint, kPbftStateRequest, kPbftStateResponse}),
      quorums_(quorums) {}

void PbftCoreReplica::HandleMessage(PrincipalId from, const Payload& frame) {
  Decoder dec = FrameDecoder(frame);
  const uint8_t tag = dec.GetU8();
  if (!dec.ok()) return;
  ChargeMac();  // channel authentication
  // Protocol-internal messages are only legitimate on replica channels.
  if (tag != kMsgRequest && !IsReplicaId(from)) return;
  if (DispatchCheckpointTraffic(tag, from, dec)) return;
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
  if (!InWindow(msg.seq)) return;

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
  if (!InWindow(msg.seq)) return;
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
  if (!InWindow(msg.seq)) return;
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
// View change
// ---------------------------------------------------------------------------

void PbftCoreReplica::SendViewChange(uint64_t new_view) {
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
  if (record.ok()) StoreViewChange(new_view, id_, std::move(record).value());
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
  SEEMORE_ASSIGN_OR_RETURN(record.stable_seq,
                           CertifiedStableSeq(msg.stable_seq, msg.cert));
  // Validate the embedded certificates now so the new-view computation can
  // trust every stored record.
  if (!VerifyCheckpointCert(msg.cert)) {
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
  AcceptViewChange(new_view, from, std::move(record_or).value());
}

std::pair<uint64_t, Reproposals> PbftCoreReplica::ComputeNewViewProposals(
    const Records& records) const {
  const uint64_t floor = Floor(records).first;
  uint64_t high = 0;
  Reproposals proposals;
  for (const auto& [sender, record] : records) {
    for (const auto& [seq, proof] : record.proofs) {
      high = std::max(high, seq);
      if (seq > floor) {
        OfferReproposal(proposals, seq, proof.view, proof.digest, proof.batch);
      }
    }
  }
  FillWithNoops(proposals, floor, high);
  return {floor, std::move(proposals)};
}

void PbftCoreReplica::FormNewView(uint64_t new_view, const Records& records) {
  auto [floor, proposals] = ComputeNewViewProposals(records);

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
  const PrincipalId helper = Floor(records).second;
  EnterView(new_view);
  ++stats_.view_changes_completed;
  uint64_t max_seq = floor;
  for (auto& [seq, proposal] : proposals) {
    max_seq = std::max(max_seq, seq);
    SlotCore& slot =
        InstallReproposal(seq, std::move(proposal.batch), proposal.digest);
    slot.primary_sig = signer_.Sign(
        ProposalHeader(kDomainPrePrepare, 0, new_view, seq, proposal.digest));
  }
  if (floor > ckpt_.stable_seq() && floor > exec_.last_executed() &&
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
  Records records;
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
  if (!IsNewViewQuorum(records)) return;

  auto [floor, proposals] = ComputeNewViewProposals(records);
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
  if (floor > exec_.last_executed()) RequestStateFrom(from);
  for (PbftNewViewEntry& entry : msg.entries) {
    if (entry.seq <= ckpt_.stable_seq()) continue;
    // Already-committed sequence numbers still run the prepare/commit vote
    // exchange so peers that missed them pre-view-change can assemble their
    // quorums; the committed flag prevents re-execution.
    SlotCore& slot = InstallReproposal(
        entry.seq, std::move(proposals[entry.seq].batch), entry.digest);
    slot.primary_sig = entry.sig;
    SendPrepare(entry.seq, slot);
    CheckPrepared(entry.seq, slot);
  }
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
}

}  // namespace seemore
