// Normal-case agreement (Algorithms 1 & 2, §5.3) and NEW-VIEW relay. View
// changes and mode switching live in seemore_view_change.cc; checkpoints
// and state transfer in consensus/checkpointing_replica.cc.

#include "seemore/seemore_replica.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace seemore {

SeeMoReReplica::SeeMoReReplica(Transport* transport, TimerService* timers,
                               const KeyStore* keystore, CryptoMemo* memo,
                               PrincipalId id, const ClusterConfig& config,
                               std::unique_ptr<StateMachine> state_machine,
                               const CostModel& costs)
    : ViewChangingReplica(transport, timers, keystore, memo, id, config,
                          std::move(state_machine), costs,
                          {kSmCheckpoint, kSmStateRequest, kSmStateResponse}),
      mode_(config.initial_mode) {}

std::vector<PrincipalId> SeeMoReReplica::PassiveNodes() const {
  std::vector<PrincipalId> out;
  for (PrincipalId r = 0; r < config_.n(); ++r) {
    if (!config_.IsProxy(r, view_)) out.push_back(r);
  }
  return out;
}

bool SeeMoReReplica::ParticipatesInAgreement() const {
  switch (mode_) {
    case SeeMoReMode::kLion:
      return true;
    case SeeMoReMode::kDog:
      return IsPrimary() || IsProxyNow();
    case SeeMoReMode::kPeacock:
      return IsProxyNow();
  }
  return false;
}

bool SeeMoReReplica::VerifyVcPrepareEntry(const SmVcEntry& entry) const {
  if (entry.mode == SeeMoReMode::kPeacock) {
    // A bare Peacock pre-prepare is signed by an UNTRUSTED primary and is
    // not self-certifying (it must travel as a PreparedProof). Only the
    // trusted transferer's NEW-VIEW re-proposals are acceptable here.
    const PrincipalId authority =
        SwitchAuthority(SeeMoReMode::kPeacock, entry.view);
    const Bytes header =
        ProposalHeader(kDomainPrePrepare, static_cast<uint8_t>(entry.mode),
                       entry.view, entry.seq, entry.digest);
    return keystore_->Verify(authority, header, entry.sig);
  }
  return VerifyProposalSig(entry.mode, entry.view, entry.seq, entry.digest,
                           entry.sig);
}

bool SeeMoReReplica::VerifyProposalSig(SeeMoReMode mode, uint64_t view,
                                       uint64_t seq, const Digest& digest,
                                       const Signature& sig) const {
  const PrincipalId proposer = config_.PrimaryOf(mode, view);
  const Bytes header = ProposalHeader(
      kDomainPrePrepare, static_cast<uint8_t>(mode), view, seq, digest);
  if (keystore_->Verify(proposer, header, sig)) return true;
  // Entries re-proposed by a NEW-VIEW are signed by the trusted authority of
  // that view (Peacock: the transferer) instead of the primary.
  const PrincipalId authority = SwitchAuthority(mode, view);
  return authority != proposer && keystore_->Verify(authority, header, sig);
}

void SeeMoReReplica::HandleMessage(PrincipalId from, const Payload& frame) {
  Decoder dec = FrameDecoder(frame);
  const uint8_t tag = dec.GetU8();
  if (!dec.ok()) return;
  ChargeMac();  // pairwise channel authentication (§3.1)
  // Protocol-internal messages are only legitimate on replica channels.
  if (tag != kMsgRequest && !IsReplicaId(from)) return;
  if (DispatchCheckpointTraffic(tag, from, dec)) return;
  switch (tag) {
    case kMsgRequest:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleRequest);
      break;
    case kSmPrepare:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandlePrepare);
      break;
    case kSmAcceptPlain:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleAcceptPlain);
      break;
    case kSmAcceptSigned:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleAcceptSigned);
      break;
    case kSmCommitPrimary:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleCommitPrimary);
      break;
    case kSmCommitVote:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleCommitVote);
      break;
    case kSmInform:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleInform);
      break;
    case kSmViewChange: {
      // Drop stale view-changes before paying the full structural decode
      // (embedded batches are hashed during decode).
      if (SmViewChangeMsg::PeekNewView(dec) <= view_) break;
      Result<SmViewChangeMsg> msg =
          SmViewChangeMsg::DecodeFrom(dec, window_ + 1);
      if (msg.ok()) HandleViewChange(from, std::move(msg).value());
      break;
    }
    case kSmNewView: {
      Result<SmNewViewMsg> msg = SmNewViewMsg::DecodeFrom(dec, window_ + 1);
      if (msg.ok()) HandleNewView(from, std::move(msg).value());
      break;
    }
    case kSmModeChange:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleModeChange);
      break;
    case kSmNewViewRequest:
      DispatchTyped(this, from, dec, &SeeMoReReplica::HandleNewViewRequest);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Normal case
// ---------------------------------------------------------------------------

void SeeMoReReplica::HandleRequest(PrincipalId from, Request request) {
  // Channel authentication (§3.1): a request arriving directly from a
  // client channel must name that client. Without this, a rogue client
  // could impersonate another and poison its timestamp sequence — the
  // crash-model baseline has no signatures to catch it otherwise.
  if (IsClientPrincipal(from) && from != request.client) return;

  // Retransmission of an executed request: any replica resends the cached
  // reply (§5.1); the client's reply policy decides how many it needs.
  if (exec_.SeenTimestamp(request.client, request.timestamp)) {
    auto cached = exec_.CachedReply(request.client, request.timestamp);
    if (cached.has_value()) {
      Reply reply;
      reply.mode = static_cast<uint8_t>(mode_);
      reply.view = view_;
      reply.timestamp = request.timestamp;
      reply.replica = id_;
      reply.result = *cached;
      if (HasByz(kByzLieToClients) && !reply.result.empty()) {
        reply.result[0] ^= 0xff;
      }
      reply.Sign(signer_);
      ChargeSign();
      SendTo(request.client, reply.ToMessage());
    }
    return;
  }

  if (IsPrimary() && !in_view_change_) {
    // The (trusted or Peacock) primary validates the client signature and
    // timestamp before ordering (Algorithm 1 lines 5-8).
    ChargeVerify();
    if (!request.VerifySignature(*keystore_)) return;
    PrimaryEnqueue(std::move(request));
    return;
  }
  if (in_view_change_) return;
  // Clients multicast to the mode's receiving network (Table 1), so the
  // primary has its own copy on the first transmission. A repeated
  // timestamp is a client retransmission: relay it to the primary (the
  // paper's liveness path, §5.1) and let participants arm the timer that
  // eventually suspects a dead primary.
  if (from == request.client) {
    if (pipeline_.NoteDirectDelivery(request.client, request.timestamp)) {
      SendTo(current_primary(), request.ToMessage());
    }
  }
  if (ParticipatesInAgreement()) ArmViewTimer();
}

void SeeMoReReplica::PrimaryEnqueue(Request request) {
  if (!pipeline_.Admit(request)) return;
  pipeline_.Enqueue(std::move(request));
  TryPropose();
}

void SeeMoReReplica::TryPropose() {
  if (proposer_quiesced()) return;
  while (pipeline_.CanOpen(log_.UncommittedSlots()) &&
         pipeline_.next_seq() <= ckpt_.stable_seq() + window_) {
    auto [seq, batch] = pipeline_.Open();
    const Bytes encoded = batch.Encode();
    ChargeHash(encoded.size());
    Digest digest = Digest::Of(encoded);
    const uint8_t mode8 = static_cast<uint8_t>(mode_);

    // A Byzantine Peacock primary may equivocate; trusted primaries cannot
    // be flagged (tests assert this invariant).
    if (HasByz(kByzEquivocate) && mode_ == SeeMoReMode::kPeacock) {
      Batch alt = Batch::Noop();
      const Bytes alt_encoded = alt.Encode();
      const Digest alt_digest = Digest::Of(alt_encoded);
      SmPrepareMsg prep_a{mode8, view_, seq, digest, Signature(), encoded};
      SmPrepareMsg prep_b{mode8, view_, seq, alt_digest, Signature(),
                          alt_encoded};
      prep_a.sig = signer_.Sign(prep_a.Header());
      prep_b.sig = signer_.Sign(prep_b.Header());
      ChargeSign(2);
      const Bytes msg_a = prep_a.ToMessage();
      const Bytes msg_b = prep_b.ToMessage();
      const std::vector<PrincipalId> all = config_.AllReplicas();
      for (size_t i = 0; i < all.size(); ++i) {
        if (all[i] == id_) continue;
        SendTo(all[i], i % 2 == 0 ? msg_a : msg_b);
      }
      continue;
    }

    ChargeSign();
    SmPrepareMsg prepare{mode8, view_, seq, digest, Signature(), encoded};
    prepare.sig = signer_.Sign(prepare.Header());

    SlotCore& slot = log_.Slot(seq);
    slot.batch = std::move(batch);
    log_.SetHasBatch(slot, true);
    slot.digest = digest;
    slot.view = view_;
    slot.mode = mode_;
    slot.primary_sig = prepare.sig;

    // In every mode the proposal is multicast to ALL replicas (Algorithm 1
    // line 8, Algorithm 2 line 9, §5.3 change #1).
    SendToMany(config_.AllReplicas(), prepare.ToMessage());

    if (mode_ == SeeMoReMode::kLion) {
      RecordVote(slot.plain_votes, digest, id_);  // the primary counts itself
    } else if (mode_ == SeeMoReMode::kPeacock) {
      // Peacock primary's pre-prepare does not count as a prepare echo;
      // it waits for 2m echoes from the other proxies.
    }
  }
}

void SeeMoReReplica::HandlePrepare(PrincipalId from, SmPrepareMsg msg) {
  const SeeMoReMode msg_mode = static_cast<SeeMoReMode>(msg.mode);
  if (from != config_.PrimaryOf(msg_mode, msg.view)) return;
  if (!InWindow(msg.seq)) return;

  // Fast-forward: a valid prepare signed by the TRUSTED primary of a higher
  // view proves that view became active (Lion/Dog only; a Peacock primary is
  // untrusted, so backups wait for the transferer's NEW-VIEW instead).
  // Proposal signature, batch digest and per-request client signatures are
  // all pure functions of the multicast frame: verify/hash for real once
  // per process, memoized on the frame's buffer identity. The simulated
  // cost is charged by every receiver regardless (charge-vs-compute).
  const auto verify_proposal = [&] {
    return VerifyProposalSig(msg_mode, msg.view, msg.seq, msg.digest, msg.sig);
  };
  if (msg_mode != SeeMoReMode::kPeacock && msg.view > view_ &&
      ModeForView(msg.view) == msg_mode) {
    ChargeVerify();
    if (!FrameVerifyMemoized(from, kSmPrepare, verify_proposal)) return;
    EnterView(msg.view, msg_mode);
  } else if (msg_mode != mode_ || msg.view != view_ || in_view_change_) {
    // A Peacock prepare for a higher view is not self-certifying, but it is
    // a hint that a view change happened while we were away (crash/recover):
    // ask the sender to relay the transferer's NEW-VIEW.
    if (msg.view > view_) RequestNewViewFrom(from);
    return;
  } else {
    ChargeVerify();
    if (!FrameVerifyMemoized(from, kSmPrepare, verify_proposal)) return;
  }

  ChargeHash(msg.batch.size());
  if (FrameFieldDigest(msg.batch, msg.batch_offset) != msg.digest) return;
  Result<Batch> batch_or = Batch::Decode(msg.batch);
  if (!batch_or.ok()) return;
  Batch batch = std::move(batch_or).value();

  // Peacock proxies re-validate client requests (the primary is untrusted).
  // Lion/Dog backups trust the primary's validation (§5.1) — one of
  // SeeMoRe's savings over PBFT.
  if (mode_ == SeeMoReMode::kPeacock && IsProxyNow()) {
    ChargeVerify(static_cast<int>(batch.size()));
    for (size_t i = 0; i < batch.requests.size(); ++i) {
      const Request& request = batch.requests[i];
      if (!FrameVerifyMemoized(
              request.client,
              (static_cast<uint32_t>(kSmPrepare) << 16) |
                  static_cast<uint32_t>(i),
              [&] { return request.VerifySignature(*keystore_); })) {
        return;
      }
    }
  }

  SlotCore& slot = log_.Slot(msg.seq);
  if (slot.has_batch()) {
    // At most one proposal per (view, seq): equivocation defense.
    if (slot.view == msg.view && slot.digest != msg.digest) return;
    if (slot.view == msg.view && slot.digest == msg.digest) return;  // dup
  }
  slot.batch = std::move(batch);
  log_.SetHasBatch(slot, true);
  slot.digest = msg.digest;
  slot.view = msg.view;
  slot.mode = mode_;
  slot.primary_sig = msg.sig;

  switch (mode_) {
    case SeeMoReMode::kLion: {
      // <ACCEPT, v, n, d, r>: unsigned, to the trusted primary only
      // (Algorithm 1 line 11).
      Digest vote = slot.digest;
      if (HasByz(kByzWrongVotes)) vote.data()[0] ^= 0xff;
      if (config_.lion_sign_accepts) {
        ChargeSign();  // ablation: what unsigned accepts save (§5.1)
      } else {
        ChargeMac();
      }
      SmAcceptPlainMsg accept{static_cast<uint8_t>(mode_), view_, msg.seq,
                              vote, id_};
      SendTo(current_primary(), accept.ToMessage());
      ArmViewTimer();
      break;
    }
    case SeeMoReMode::kDog:
    case SeeMoReMode::kPeacock: {
      if (IsProxyNow()) {
        SendSignedAccept(msg.seq, slot);
        ArmViewTimer();
        CheckProxyCommit(msg.seq, slot);
      }
      // Passive nodes just keep the batch; they execute on INFORMs.
      break;
    }
  }
}

void SeeMoReReplica::SendSignedAccept(uint64_t seq, SlotCore& slot) {
  if (slot.accept_sent) return;
  slot.accept_sent = true;
  Digest vote = slot.digest;
  if (HasByz(kByzWrongVotes)) vote.data()[0] ^= 0xff;
  ChargeSign();
  SmAcceptSignedMsg accept;
  accept.mode = static_cast<uint8_t>(mode_);
  accept.view = view_;
  accept.seq = seq;
  accept.digest = vote;
  accept.voter = id_;
  accept.sig = signer_.Sign(accept.Header(SmAcceptSignedMsg::kDomain));
  SendToMany(Proxies(), accept.ToMessage());
  RecordVote(slot.accept_votes, vote, id_, accept.sig);
}

void SeeMoReReplica::HandleAcceptPlain(PrincipalId from, SmAcceptPlainMsg msg) {
  const SeeMoReMode msg_mode = static_cast<SeeMoReMode>(msg.mode);
  if (msg_mode != SeeMoReMode::kLion || mode_ != SeeMoReMode::kLion) return;
  if (msg.view != view_ || !IsPrimary() || in_view_change_) return;
  if (msg.voter != from || !IsReplicaId(msg.voter)) return;
  SlotCore* found = log_.Find(msg.seq);
  if (found == nullptr || !found->has_batch()) return;
  SlotCore& slot = *found;
  // The tracker sees every vote (conflicting ones flag the equivocator);
  // only votes matching the proposal count toward the quorum.
  RecordVote(slot.plain_votes, msg.digest, msg.voter);
  if (msg.digest != slot.digest) return;
  if (config_.lion_sign_accepts) ChargeVerify();  // ablation (§5.1)
  if (static_cast<int>(slot.plain_votes.Count(slot.digest)) < CommitQuorum()) {
    return;
  }
  if (slot.has_commit_sig) return;  // commit already broadcast in this view

  // <<COMMIT, v, n, d>_σp, µ> to all replicas (Algorithm 1 lines 13-15).
  ChargeSign();
  SmCommitPrimaryMsg commit;
  commit.mode = static_cast<uint8_t>(mode_);
  commit.view = view_;
  commit.seq = msg.seq;
  commit.digest = slot.digest;
  commit.sig = signer_.Sign(commit.Header());
  commit.batch = slot.batch.Encode();
  slot.commit_sig = commit.sig;
  slot.has_commit_sig = true;
  SendToMany(config_.AllReplicas(), commit.ToMessage());
  CommitSlot(msg.seq, slot, /*replies=*/true, /*informs=*/false);
}

void SeeMoReReplica::HandleCommitPrimary(PrincipalId from,
                                         SmCommitPrimaryMsg msg) {
  const SeeMoReMode msg_mode = static_cast<SeeMoReMode>(msg.mode);
  if (msg_mode != SeeMoReMode::kLion) return;
  if (from != config_.TrustedPrimary(msg.view)) return;
  if (msg.seq <= ckpt_.stable_seq()) return;

  ChargeVerify();
  if (!FrameVerifyMemoized(from, kSmCommitPrimary, [&] {
        return msg.VerifySignature(*keystore_, from);
      })) {
    return;
  }

  // A signed commit from the trusted primary of a higher view also proves
  // that view is active.
  if (msg.view > view_ && ModeForView(msg.view) == msg_mode) {
    EnterView(msg.view, msg_mode);
  } else if (mode_ != SeeMoReMode::kLion || msg.view != view_) {
    return;
  }

  SlotCore& slot = log_.Slot(msg.seq);
  if (slot.committed()) return;
  // "Even if the replica has not received a prepare message ... it considers
  // the request as committed" — the commit carries µ (§5.1).
  if (!slot.has_batch() || slot.digest != msg.digest) {
    ChargeHash(msg.batch.size());
    if (FrameFieldDigest(msg.batch, msg.batch_offset) != msg.digest) return;
    Result<Batch> batch_or = Batch::Decode(msg.batch);
    if (!batch_or.ok()) return;
    slot.batch = std::move(batch_or).value();
    log_.SetHasBatch(slot, true);
    slot.digest = msg.digest;
    slot.view = msg.view;
    slot.mode = msg_mode;
  }
  slot.commit_sig = msg.sig;
  slot.has_commit_sig = true;
  CommitSlot(msg.seq, slot, /*replies=*/false, /*informs=*/false);
}

void SeeMoReReplica::HandleAcceptSigned(PrincipalId from,
                                        SmAcceptSignedMsg msg) {
  const SeeMoReMode msg_mode = static_cast<SeeMoReMode>(msg.mode);
  if (msg.view > view_) RequestNewViewFrom(from);
  if (msg_mode != mode_ || msg.view != view_ || in_view_change_) return;
  if (mode_ == SeeMoReMode::kLion) return;
  if (msg.voter != from || !config_.IsProxy(msg.voter, msg.view)) return;
  if (!IsProxyNow() && !(mode_ == SeeMoReMode::kDog && IsPrimary())) return;
  if (!InWindow(msg.seq)) return;
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.voter, kSmAcceptSigned,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  SlotCore& slot = log_.Slot(msg.seq);
  RecordVote(slot.accept_votes, msg.digest, msg.voter, msg.sig);
  CheckProxyCommit(msg.seq, slot);
}

void SeeMoReReplica::CheckProxyCommit(uint64_t seq, SlotCore& slot) {
  if (!slot.has_batch()) return;
  const int quorum = CommitQuorum();  // 2m+1

  if (mode_ == SeeMoReMode::kDog) {
    // Dog commits directly at 2m+1 signed accepts (2 phases; the commit
    // message only helps lagging proxies catch up, Algorithm 2 lines 13-17).
    if (static_cast<int>(slot.accept_votes.Count(slot.digest)) < quorum) {
      return;
    }
    // NOTE: fall through even when slot.committed() — the commit vote below
    // must still go out for peers running the catch-up path.
    if (!slot.commit_sent) {
      slot.commit_sent = true;
      ChargeSign();
      SmCommitVoteMsg commit;
      commit.mode = static_cast<uint8_t>(mode_);
      commit.view = view_;
      commit.seq = seq;
      commit.digest = slot.digest;
      commit.voter = id_;
      commit.sig = signer_.Sign(commit.Header(SmCommitVoteMsg::kDomain));
      SendToMany(Proxies(), commit.ToMessage());
    }
    CommitSlot(seq, slot, /*replies=*/true, /*informs=*/true);
    return;
  }

  // Peacock: PBFT phases among the proxies.
  if (!slot.prepared) {
    // pre-prepare + 2m matching prepare echoes => prepared.
    if (static_cast<int>(slot.accept_votes.Count(slot.digest)) <
        2 * config_.m) {
      return;
    }
    slot.prepared = true;
    if (!slot.commit_sent) {
      slot.commit_sent = true;
      Digest vote = slot.digest;
      if (HasByz(kByzWrongVotes)) vote.data()[0] ^= 0xff;
      ChargeSign();
      SmCommitVoteMsg commit;
      commit.mode = static_cast<uint8_t>(mode_);
      commit.view = view_;
      commit.seq = seq;
      commit.digest = vote;
      commit.voter = id_;
      commit.sig = signer_.Sign(commit.Header(SmCommitVoteMsg::kDomain));
      SendToMany(Proxies(), commit.ToMessage());
      RecordVote(slot.commit_votes, vote, id_, commit.sig);
    }
  }
  if (slot.prepared &&
      static_cast<int>(slot.commit_votes.Count(slot.digest)) >= quorum) {
    CommitSlot(seq, slot, /*replies=*/true, /*informs=*/true);
  }
}

void SeeMoReReplica::HandleCommitVote(PrincipalId from, SmCommitVoteMsg msg) {
  const SeeMoReMode msg_mode = static_cast<SeeMoReMode>(msg.mode);
  if (msg.view > view_) RequestNewViewFrom(from);
  if (msg_mode != mode_ || msg.view != view_ || in_view_change_) return;
  if (mode_ == SeeMoReMode::kLion) return;
  if (msg.voter != from || !config_.IsProxy(msg.voter, msg.view)) return;
  if (!IsProxyNow()) return;
  if (!InWindow(msg.seq)) return;
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.voter, kSmCommitVote,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  SlotCore& slot = log_.Slot(msg.seq);
  RecordVote(slot.commit_votes, msg.digest, msg.voter, msg.sig);

  if (mode_ == SeeMoReMode::kDog) {
    // Catch-up: m+1 matching commits prove at least one non-faulty proxy
    // committed (§5.2).
    if (!slot.committed() && slot.has_batch() && slot.digest == msg.digest &&
        static_cast<int>(slot.commit_votes.Count(msg.digest)) >=
            config_.m + 1) {
      CommitSlot(msg.seq, slot, /*replies=*/true, /*informs=*/true);
    }
    return;
  }
  CheckProxyCommit(msg.seq, slot);
}

void SeeMoReReplica::HandleInform(PrincipalId from, SmInformMsg msg) {
  const SeeMoReMode msg_mode = static_cast<SeeMoReMode>(msg.mode);
  if (msg_mode != mode_ || mode_ == SeeMoReMode::kLion) return;
  if (msg.view > view_) RequestNewViewFrom(from);
  if (msg.view != view_) return;
  if (msg.voter != from || !config_.IsProxy(msg.voter, msg.view)) return;
  if (msg.seq <= ckpt_.stable_seq()) return;
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.voter, kSmInform,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  SlotCore& slot = log_.Slot(msg.seq);
  RecordVote(slot.inform_votes, msg.digest, msg.voter);
  // Dog: 2m+1 matching INFORMs; Peacock: m+1 (§5.2 / §5.3).
  const int needed =
      mode_ == SeeMoReMode::kDog ? 2 * config_.m + 1 : config_.m + 1;
  if (!slot.committed() && slot.has_batch() && slot.digest == msg.digest &&
      static_cast<int>(slot.inform_votes.Count(msg.digest)) >= needed) {
    CommitSlot(msg.seq, slot, /*replies=*/false, /*informs=*/false);
  }
}

void SeeMoReReplica::CommitSlot(uint64_t seq, SlotCore& slot, bool replies,
                                bool informs) {
  if (slot.committed()) return;
  commits().MarkCommitted(log_, slot);
  if (informs) SendInform(seq, slot);
  std::vector<ExecutedRequest> executed =
      commits().Execute(seq, slot.batch, slot.digest);
  for (const ExecutedRequest& ex : executed) {
    if (replies && !(ex.duplicate && ex.result.empty())) SendReply(ex);
  }
  MaybeCheckpoint();
  RestartOrDisarmViewTimer();
  if (IsPrimary() && !in_view_change_) TryPropose();
}

void SeeMoReReplica::SendReply(const ExecutedRequest& executed) {
  Reply reply;
  reply.mode = static_cast<uint8_t>(mode_);
  reply.view = view_;
  reply.timestamp = executed.timestamp;
  reply.replica = id_;
  reply.result = executed.result;
  if (HasByz(kByzLieToClients) && !reply.result.empty()) {
    reply.result[0] ^= 0xff;
  }
  reply.Sign(signer_);
  ChargeSign();  // replies are signed in every SeeMoRe mode (§5.1)
  SendTo(executed.client, reply.ToMessage());
}

void SeeMoReReplica::SendInform(uint64_t seq, const SlotCore& slot) {
  ChargeSign();
  SmInformMsg inform;
  inform.mode = static_cast<uint8_t>(mode_);
  inform.view = view_;
  inform.seq = seq;
  inform.digest = slot.digest;
  inform.voter = id_;
  inform.sig = signer_.Sign(inform.Header(SmInformMsg::kDomain));
  SendToMany(PassiveNodes(), inform.ToMessage());
}

// ---------------------------------------------------------------------------
// Durable restart and view catch-up
// ---------------------------------------------------------------------------

void SeeMoReReplica::OnDurableRestore(const RecoveredImage& image) {
  // The view comes back in the mode it was entered in.
  if (image.has_view) mode_ = static_cast<SeeMoReMode>(image.mode);
  ViewChangingReplica::OnDurableRestore(image);
}

void SeeMoReReplica::RequestNewViewFrom(PrincipalId target) {
  if (target == id_ || !IsReplicaId(target)) return;
  if (now() - last_nv_request_ < Millis(20)) return;
  last_nv_request_ = now();
  NewViewRequestMsg request{view_};
  SendTo(target, request.ToMessage());
}

void SeeMoReReplica::HandleNewViewRequest(PrincipalId from,
                                          NewViewRequestMsg msg) {
  // Only useful when we actually hold a NEW-VIEW newer than the requester's
  // view. The relayed frame is verified end-to-end by the receiver
  // (HandleNewView), so no further validation is needed here. The request is
  // unsigned and the stored frame can be large, so rate-limit per peer: an
  // honest laggard self-limits to one request per 20ms anyway, while a
  // Byzantine spammer gets at most one relay per window instead of
  // per-request bandwidth amplification.
  if (msg.view >= view_ || last_new_view_frame_.size() == 0) return;
  auto [it, first_request] = last_nv_relay_.emplace(from, -Seconds(1));
  if (!first_request && now() - it->second < Millis(20)) return;
  it->second = now();
  SendTo(from, last_new_view_frame_);
}

}  // namespace seemore
