// View changes (§5.1-§5.3) and dynamic mode switching (§5.4).
//
// Who sends VIEW-CHANGE messages depends on the current mode:
//   Lion:    every replica; the new trusted primary collects 2m+c+1
//            (including its own) and issues NEW-VIEW.
//   Dog:     every public-cloud node; the new trusted primary collects 2m+1
//            from the proxies of the last active view.
//   Peacock: the proxies; the trusted *transferer* t = v' mod S collects
//            2m+1 from the proxies of the last active view and issues the
//            NEW-VIEW itself (minimising new-view size and primary-shuffle
//            latency, §5.3).
//
// "Last active view" is derived from evidence: prepares/proofs are signed by
// the (trusted or quorum-backed) proposer of their view, so the highest view
// appearing in any collected entry is a sound lower bound that Byzantine
// senders cannot inflate.

#include "seemore/seemore_replica.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace seemore {

uint64_t SeeMoReViewChangeRecord::LastActiveView(SeeMoReMode mode) const {
  uint64_t last = 0;
  for (const auto& [seq, entry] : prepares) {
    if (entry.mode == mode) last = std::max(last, entry.view);
  }
  for (const auto& [seq, entry] : commits) {
    if (entry.mode == mode) last = std::max(last, entry.view);
  }
  for (const auto& [seq, proof] : proofs) {
    if (static_cast<SeeMoReMode>(proof.mode) == mode) {
      last = std::max(last, proof.view);
    }
  }
  return last;
}

SeeMoReMode SeeMoReReplica::ModeForView(uint64_t v) const {
  auto it = pending_mode_.find(v);
  return it != pending_mode_.end() ? it->second : mode_;
}

bool SeeMoReReplica::IsNewViewAuthority(uint64_t new_view) const {
  return SwitchAuthority(ModeForView(new_view), new_view) == id_;
}

// ---------------------------------------------------------------------------
// VIEW-CHANGE emission and validation
// ---------------------------------------------------------------------------

SmViewChangeMsg SeeMoReReplica::BuildViewChangeMessage(
    uint64_t new_view) const {
  SmViewChangeMsg msg;
  msg.mode = static_cast<uint8_t>(mode_);
  msg.new_view = new_view;
  msg.stable_seq = ckpt_.stable_seq();
  msg.cert = ckpt_.stable_cert();

  // Classify every live slot by the mode it was created under. Slots can
  // outlive a mode switch (committed entries kept as evidence), so the sets
  // may mix modes; each entry is verified against its own signature domain.
  //   P set: trusted-primary/transferer-signed proposals (Lion, Dog, and
  //          transferer-re-proposed Peacock entries). The paper transmits
  //          them "without the request message µ"; we carry µ so the new
  //          primary can always re-propose without a fetch round (the same
  //          pragmatic choice BFT-SMaRt makes).
  //   C set: Lion primary-signed commits (§5.1).
  //   Proofs: Peacock prepared certificates (§5.3).
  const uint64_t stable = ckpt_.stable_seq();
  log_.ForEachAscending([&](uint64_t seq, const SlotCore& slot) {
    if (!slot.has_batch() || seq <= stable) return;
    if (slot.mode == SeeMoReMode::kPeacock) return;
    SmVcEntry entry;
    entry.mode = slot.mode;
    entry.view = slot.view;
    entry.seq = seq;
    entry.digest = slot.digest;
    entry.batch = slot.batch;
    entry.sig = slot.primary_sig;
    msg.prepares.push_back(std::move(entry));
  });
  log_.ForEachAscending([&](uint64_t seq, const SlotCore& slot) {
    if (!slot.has_batch() || seq <= stable ||
        slot.mode != SeeMoReMode::kLion || !slot.has_commit_sig) {
      return;
    }
    SmVcEntry entry;
    entry.mode = slot.mode;
    entry.view = slot.view;
    entry.seq = seq;
    entry.digest = slot.digest;
    entry.batch = slot.batch;
    entry.sig = slot.commit_sig;
    msg.commits.push_back(std::move(entry));
  });
  log_.ForEachAscending([&](uint64_t seq, const SlotCore& slot) {
    if (!slot.has_batch() || seq <= stable ||
        slot.mode != SeeMoReMode::kPeacock || !slot.prepared) {
      return;
    }
    PreparedProof proof;
    proof.mode = static_cast<uint8_t>(slot.mode);
    proof.view = slot.view;
    proof.seq = seq;
    proof.digest = slot.digest;
    proof.batch = slot.batch;
    proof.primary_sig = slot.primary_sig;
    proof.prepares =
        slot.accept_votes.SignaturesFor(slot.digest).SortedEntries();
    msg.proofs.push_back(std::move(proof));
  });
  msg.sender = id_;
  return msg;
}

Result<SeeMoReReplica::ViewChangeRecord> SeeMoReReplica::ValidateViewChange(
    SmViewChangeMsg msg, PrincipalId from, uint64_t frame_id) const {
  if (msg.sender != from) {
    return Status::Corruption("view-change sender mismatch");
  }
  // Every verdict below is a pure function of the frame contents and the
  // cluster config, so n receivers of one multicast VIEW-CHANGE share the
  // real crypto through the memo. Slots index the frame's sets; the
  // charged simulated cost (HandleViewChange) is unaffected. frame_id 0
  // (own-message validation) computes everything for real.
  constexpr uint32_t kCertSlot = static_cast<uint32_t>(kSmViewChange) << 24;
  constexpr uint32_t kPrepareSlots = kCertSlot | (1u << 20);
  constexpr uint32_t kCommitSlots = kCertSlot | (2u << 20);
  constexpr uint32_t kProofSlots = kCertSlot | (3u << 20);

  ViewChangeRecord record;
  if (!VerifyMemoized(frame_id, from, kCertSlot,
                      [&] { return VerifyCheckpointCert(msg.cert); })) {
    return Status::Corruption("invalid checkpoint cert in view-change");
  }
  SEEMORE_ASSIGN_OR_RETURN(record.stable_seq,
                           CertifiedStableSeq(msg.stable_seq, msg.cert));

  for (size_t i = 0; i < msg.prepares.size(); ++i) {
    SmVcEntry& entry = msg.prepares[i];
    if (!VerifyMemoized(frame_id, from,
                        kPrepareSlots | static_cast<uint32_t>(i),
                        [&] { return VerifyVcPrepareEntry(entry); })) {
      return Status::Corruption("invalid prepare entry signature");
    }
    const uint64_t seq = entry.seq;
    record.prepares.emplace(seq, std::move(entry));
  }

  for (size_t i = 0; i < msg.commits.size(); ++i) {
    SmVcEntry& entry = msg.commits[i];
    if (entry.mode != SeeMoReMode::kLion) {
      return Status::Corruption("commit entries only exist in Lion");
    }
    const auto verify_commit_entry = [&] {
      const Bytes header =
          ProposalHeader(kDomainCommit, static_cast<uint8_t>(entry.mode),
                         entry.view, entry.seq, entry.digest);
      return keystore_->Verify(config_.TrustedPrimary(entry.view), header,
                               entry.sig);
    };
    if (!VerifyMemoized(frame_id, from,
                        kCommitSlots | static_cast<uint32_t>(i),
                        verify_commit_entry)) {
      return Status::Corruption("invalid commit entry signature");
    }
    const uint64_t seq = entry.seq;
    record.commits.emplace(seq, std::move(entry));
  }

  for (size_t i = 0; i < msg.proofs.size(); ++i) {
    PreparedProof& proof = msg.proofs[i];
    const auto verify_proof = [&] {
      const SeeMoReMode proof_mode = static_cast<SeeMoReMode>(proof.mode);
      const PrincipalId proposer = config_.PrimaryOf(proof_mode, proof.view);
      const PrincipalId authority = SwitchAuthority(proof_mode, proof.view);
      const auto authorized = [this, &proof](PrincipalId r) {
        return config_.IsProxy(r, proof.view);
      };
      // Re-proposed entries are signed by the transferer, fresh ones by the
      // primary; accept either (see VerifyProposalSig).
      return proof.Verify(*keystore_, proposer, 2 * config_.m, authorized) ||
             (authority != proposer &&
              proof.Verify(*keystore_, authority, 2 * config_.m, authorized));
    };
    if (!VerifyMemoized(frame_id, from,
                        kProofSlots | static_cast<uint32_t>(i),
                        verify_proof)) {
      return Status::Corruption("invalid prepared proof");
    }
    const uint64_t seq = proof.seq;
    record.proofs.emplace(seq, std::move(proof));
  }
  return record;
}

// ---------------------------------------------------------------------------
// View-change protocol
// ---------------------------------------------------------------------------

void SeeMoReReplica::SendViewChange(uint64_t new_view) {
  // Who multicasts VIEW-CHANGE depends on the current mode (header comment).
  const bool sender_role =
      mode_ == SeeMoReMode::kLion
          ? true
          : (mode_ == SeeMoReMode::kDog ? !config_.IsTrusted(id_)
                                        : IsProxyNow());
  if (!sender_role) return;
  SmViewChangeMsg msg = BuildViewChangeMessage(new_view);
  SendToMany(config_.AllReplicas(), msg.ToMessage());
  // Own message, never a delivered frame: frame_id 0 skips the memo.
  Result<ViewChangeRecord> own = ValidateViewChange(std::move(msg), id_, 0);
  if (own.ok()) StoreViewChange(new_view, id_, std::move(own).value());
}

void SeeMoReReplica::HandleViewChange(PrincipalId from, SmViewChangeMsg msg) {
  // Check the target view before paying full validation.
  const uint64_t new_view = msg.new_view;
  if (new_view <= view_) return;

  ChargeVerify(2);  // cert + entry validation (amortized)
  Result<ViewChangeRecord> record_or =
      ValidateViewChange(std::move(msg), from, current_frame().id());
  if (!record_or.ok()) {
    SEEMORE_LOG(Debug) << "replica " << id_ << ": rejecting view-change from "
                       << from << ": " << record_or.status().ToString();
    return;
  }
  AcceptViewChange(new_view, from, std::move(record_or).value());
}

bool SeeMoReReplica::JoinsViewChange(const Records& records,
                                     bool /*named*/) const {
  int trusted = 0;
  for (const auto& [sender, record] : records) {
    if (config_.IsTrusted(sender)) ++trusted;
  }
  const int untrusted = static_cast<int>(records.size()) - trusted;
  return (trusted >= 1 || untrusted >= config_.m + 1) &&
         (ParticipatesInAgreement() || config_.IsTrusted(id_));
}

bool SeeMoReReplica::IsNewViewQuorum(const Records& records) const {
  if (mode_ == SeeMoReMode::kLion) {
    return static_cast<int>(records.size()) >= 2 * config_.m + config_.c + 1;
  }

  // Dog/Peacock: 2m+1 view-changes from the proxies of the last active view
  // (§5.2). Evidence views cannot be inflated by Byzantine nodes, so the
  // maximum across records is a sound choice of "last active view".
  uint64_t last_active = 0;
  for (const auto& [sender, record] : records) {
    last_active = std::max(last_active, record.LastActiveView(mode_));
  }
  int count = 0;
  for (const auto& [sender, record] : records) {
    const bool eligible = last_active > 0
                              ? config_.IsProxy(sender, last_active)
                              : !config_.IsTrusted(sender);
    if (eligible) ++count;
  }
  return count >= 2 * config_.m + 1;
}

void SeeMoReReplica::FormNewView(uint64_t new_view, const Records& records) {
  const SeeMoReMode target_mode = ModeForView(new_view);
  const bool lion = target_mode == SeeMoReMode::kLion;

  // l: latest stable checkpoint across the quorum (and ours); h: highest
  // evidenced seq.
  auto [low, helper] = Floor(records);
  low = std::max(low, ckpt_.stable_seq());
  uint64_t high = 0;

  // Candidate selection per sequence number (§5.1 steps 1-3, generalized
  // across modes). Priority: commit evidence > quorum of prepares > highest-
  // view prepare/proof > no-op.
  Reproposals candidates;
  std::map<uint64_t, std::map<Digest, int>> prepare_support;
  for (const auto& [sender, record] : records) {
    for (const auto& [seq, entry] : record.commits) {
      high = std::max(high, seq);
      if (seq <= low) continue;
      OfferReproposal(candidates, seq, entry.view, entry.digest, entry.batch,
                      /*committed=*/true);
    }
    for (const auto& [seq, entry] : record.prepares) {
      high = std::max(high, seq);
      if (seq <= low) continue;
      ++prepare_support[seq][entry.digest];
      OfferReproposal(candidates, seq, entry.view, entry.digest, entry.batch);
    }
    for (const auto& [seq, proof] : record.proofs) {
      high = std::max(high, seq);
      if (seq <= low) continue;
      OfferReproposal(candidates, seq, proof.view, proof.digest, proof.batch);
    }
  }
  // Lion step 2: 2m+c+1 matching prepares imply the old primary may have
  // committed — promote to commit evidence.
  if (mode_ == SeeMoReMode::kLion) {
    for (auto& [seq, cand] : candidates) {
      auto sup = prepare_support.find(seq);
      if (sup == prepare_support.end()) continue;
      auto matching = sup->second.find(cand.digest);
      if (matching != sup->second.end() &&
          matching->second >= 2 * config_.m + config_.c + 1) {
        cand.committed = true;
      }
    }
  }
  FillWithNoops(candidates, low, high);

  // Build the NEW-VIEW. C' only exists when the target mode is Lion; in
  // Dog/Peacock every entry is re-agreed by the proxies.
  const uint8_t mode8 = static_cast<uint8_t>(target_mode);
  SmNewViewMsg nv;
  nv.mode = mode8;
  nv.new_view = new_view;
  nv.low = low;
  for (const auto& [seq, cand] : candidates) {
    const bool commit = lion && cand.committed;
    ChargeSign();
    SmNewViewEntry entry;
    entry.view = new_view;
    entry.seq = seq;
    entry.digest = cand.digest;
    entry.batch = cand.batch.Encode();
    entry.sig = signer_.Sign(
        ProposalHeader(commit ? kDomainCommit : kDomainPrePrepare, mode8,
                       new_view, seq, cand.digest));
    (commit ? nv.commits : nv.prepares).push_back(std::move(entry));
  }
  // Sign last: the header binds the complete C'/P' sets (EntrySetDigest), so
  // an untrusted relayer cannot prune entries from the frame.
  ChargeSign();
  ChargeHash((nv.commits.size() + nv.prepares.size()) *
             (16 + Digest::kSize));
  nv.header_sig = signer_.Sign(nv.Header());
  const Payload nv_frame(nv.ToMessage());
  SendToMany(config_.AllReplicas(), nv_frame);

  // Install locally: C' entries commit first, then P' entries are re-agreed.
  EnterView(new_view, target_mode);
  last_new_view_frame_ = nv_frame;  // kept for relay to sleeping replicas
  ++stats_.view_changes_completed;
  if (low > exec_.last_executed() && helper != id_) RequestStateFrom(helper);

  for (auto& [seq, cand] : candidates) {
    if (!(lion && cand.committed) || seq <= ckpt_.stable_seq() ||
        exec_.HasCommitted(seq)) {
      continue;
    }
    SlotCore& slot =
        InstallReproposal(seq, std::move(cand.batch), cand.digest);
    slot.mode = target_mode;
    slot.commit_sig = signer_.Sign(
        ProposalHeader(kDomainCommit, mode8, new_view, seq, cand.digest));
    slot.has_commit_sig = true;
    CommitSlot(seq, slot, /*replies=*/IsPrimary(), /*informs=*/false);
  }
  for (auto& [seq, cand] : candidates) {
    if ((lion && cand.committed) || seq <= ckpt_.stable_seq()) continue;
    SlotCore& slot =
        InstallReproposal(seq, std::move(cand.batch), cand.digest);
    slot.mode = target_mode;
    slot.primary_sig = signer_.Sign(
        ProposalHeader(kDomainPrePrepare, mode8, new_view, seq, cand.digest));
    if (lion) {
      RecordVote(slot.plain_votes, slot.digest, id_);
    } else if (IsProxyNow()) {
      SendSignedAccept(seq, slot);
    }
  }
  pipeline_.OverrideNextSeq(
      std::max<uint64_t>(high + 1, ckpt_.stable_seq() + 1));
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
  if (IsPrimary()) TryPropose();
}

void SeeMoReReplica::HandleNewView(PrincipalId from, SmNewViewMsg msg) {
  const SeeMoReMode new_mode = static_cast<SeeMoReMode>(msg.mode);
  const uint64_t new_view = msg.new_view;
  if (new_view <= view_) return;
  // Only the trusted authority of the new (view, mode) may ISSUE a NEW-VIEW,
  // but any replica may RELAY one (view catch-up for replicas that slept
  // through the view change): the header signature covers the complete
  // C'/P' entry sets (SmNewViewMsg::EntrySetDigest), so a relayed frame is
  // exactly as trustworthy as a direct one — a relayer that prunes or
  // reorders entries breaks the signature.
  const PrincipalId authority = SwitchAuthority(new_mode, new_view);
  if (!config_.IsTrusted(authority)) return;
  const uint8_t mode8 = msg.mode;
  ChargeHash((msg.commits.size() + msg.prepares.size()) *
             (16 + Digest::kSize));  // EntrySetDigest recomputation
  ChargeVerify();
  if (!FrameVerifyMemoized(authority, kSmNewView, [&] {
        return msg.VerifySignature(*keystore_, authority);
      })) {
    return;
  }

  struct Entry {
    uint64_t seq;
    Digest digest;
    Batch batch;
    Signature sig;
  };
  // Batch-resolve every embedded batch digest in one memo pass: the first
  // receiver of this NEW-VIEW hashes them all, the rest reuse the answers.
  // Simulated charges stay per-entry inside the loops below, so a malformed
  // certificate still costs exactly what it did when digests were computed
  // one at a time.
  // Span table and digest results live in the replica's scratch arena
  // (reset at checkpoint boundaries): zero heap traffic per NEW-VIEW.
  const size_t n_spans = msg.commits.size() + msg.prepares.size();
  CryptoMemo::DigestSpan* spans =
      scratch_arena().AllocateArray<CryptoMemo::DigestSpan>(n_spans);
  size_t si = 0;
  for (const SmNewViewEntry& e : msg.commits) {
    spans[si++] = {e.batch_offset, e.batch.data(), e.batch.size()};
  }
  for (const SmNewViewEntry& e : msg.prepares) {
    spans[si++] = {e.batch_offset, e.batch.data(), e.batch.size()};
  }
  Digest* batch_digests = scratch_arena().AllocateArray<Digest>(n_spans);
  if (n_spans > 0) FrameFieldDigests(spans, n_spans, batch_digests);
  size_t span_idx = 0;

  std::vector<Entry> commit_entries;
  for (SmNewViewEntry& wire_entry : msg.commits) {
    Entry entry;
    entry.seq = wire_entry.seq;
    entry.digest = wire_entry.digest;
    entry.sig = wire_entry.sig;
    if (wire_entry.view != new_view) return;
    ChargeHash(wire_entry.batch.size());
    if (batch_digests[span_idx++] != entry.digest) return;
    Result<Batch> batch_or = Batch::Decode(wire_entry.batch);
    if (!batch_or.ok()) return;
    entry.batch = std::move(batch_or).value();
    ChargeVerify();
    if (!keystore_->Verify(authority,
                           ProposalHeader(kDomainCommit, mode8, new_view,
                                          entry.seq, entry.digest),
                           entry.sig)) {
      return;
    }
    commit_entries.push_back(std::move(entry));
  }
  std::vector<Entry> prepare_entries;
  for (SmNewViewEntry& wire_entry : msg.prepares) {
    Entry entry;
    entry.seq = wire_entry.seq;
    entry.digest = wire_entry.digest;
    entry.sig = wire_entry.sig;
    if (wire_entry.view != new_view) return;
    ChargeHash(wire_entry.batch.size());
    if (batch_digests[span_idx++] != entry.digest) return;
    Result<Batch> batch_or = Batch::Decode(wire_entry.batch);
    if (!batch_or.ok()) return;
    entry.batch = std::move(batch_or).value();
    ChargeVerify();
    if (!keystore_->Verify(authority,
                           ProposalHeader(kDomainPrePrepare, mode8, new_view,
                                          entry.seq, entry.digest),
                           entry.sig)) {
      return;
    }
    prepare_entries.push_back(std::move(entry));
  }

  EnterView(new_view, new_mode);
  last_new_view_frame_ = current_frame();  // kept for relay to laggards
  ++stats_.view_changes_completed;
  if (msg.low > exec_.last_executed()) RequestStateFrom(from);

  uint64_t high = msg.low;
  for (Entry& entry : commit_entries) {
    high = std::max(high, entry.seq);
    if (entry.seq <= ckpt_.stable_seq() || exec_.HasCommitted(entry.seq)) {
      continue;
    }
    SlotCore& slot =
        InstallReproposal(entry.seq, std::move(entry.batch), entry.digest);
    slot.mode = new_mode;
    slot.commit_sig = entry.sig;
    slot.has_commit_sig = true;
    CommitSlot(entry.seq, slot, /*replies=*/false, /*informs=*/false);
  }
  for (Entry& entry : prepare_entries) {
    high = std::max(high, entry.seq);
    if (entry.seq <= ckpt_.stable_seq()) continue;
    // Already-committed sequence numbers still take part in the new view's
    // agreement (echoes/accepts/informs): peers that had NOT committed them
    // before the view change can only assemble their quorums if committed
    // nodes keep voting. The committed flag prevents re-execution.
    const bool already_committed = exec_.HasCommitted(entry.seq);
    SlotCore& slot =
        InstallReproposal(entry.seq, std::move(entry.batch), entry.digest);
    slot.mode = new_mode;
    slot.primary_sig = entry.sig;
    if (already_committed && IsProxyNow() && mode_ != SeeMoReMode::kLion) {
      SendInform(entry.seq, slot);  // passive nodes may have missed them
    }
    switch (mode_) {
      case SeeMoReMode::kLion: {
        if (!IsPrimary()) {
          ChargeMac();
          SmAcceptPlainMsg accept{mode8, view_, entry.seq, slot.digest, id_};
          SendTo(current_primary(), accept.ToMessage());
        }
        break;
      }
      case SeeMoReMode::kDog:
      case SeeMoReMode::kPeacock:
        if (IsProxyNow()) {
          SendSignedAccept(entry.seq, slot);
          CheckProxyCommit(entry.seq, slot);
        }
        break;
    }
  }
  if (IsPrimary()) pipeline_.AdvanceNextSeq(high + 1);
  if (log_.UncommittedSlots() > 0) ArmViewTimer();
  if (IsPrimary()) TryPropose();
}

// ---------------------------------------------------------------------------
// Mode switching (§5.4)
// ---------------------------------------------------------------------------

Status SeeMoReReplica::RequestModeSwitch(SeeMoReMode new_mode) {
  if (crashed()) return Status::FailedPrecondition("replica crashed");
  if (new_mode == mode_) return Status::InvalidArgument("already in mode");
  const uint64_t new_view = view_ + 1;
  if (SwitchAuthority(new_mode, new_view) != id_) {
    return Status::FailedPrecondition(
        "mode switch must be requested on the new view's trusted authority");
  }
  ChargeSign();
  SmModeChangeMsg msg;
  msg.mode = static_cast<uint8_t>(new_mode);
  msg.new_view = new_view;
  msg.sender = id_;
  msg.sig = signer_.Sign(msg.Header());
  SendToMany(config_.AllReplicas(), msg.ToMessage());

  pending_mode_[new_view] = new_mode;
  StartViewChange(new_view);
  return Status::Ok();
}

void SeeMoReReplica::HandleModeChange(PrincipalId from, SmModeChangeMsg msg) {
  const SeeMoReMode new_mode = static_cast<SeeMoReMode>(msg.mode);
  if (msg.new_view <= view_) return;
  if (msg.sender != from || !config_.IsTrusted(msg.sender)) return;
  if (SwitchAuthority(new_mode, msg.new_view) != msg.sender) return;
  if (new_mode != SeeMoReMode::kLion && new_mode != SeeMoReMode::kDog &&
      new_mode != SeeMoReMode::kPeacock) {
    return;
  }
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.sender, kSmModeChange,
                           [&] { return msg.VerifySignature(*keystore_); })) {
    return;
  }
  pending_mode_[msg.new_view] = new_mode;
  // A trusted replica ordered the switch: join the view change immediately.
  StartViewChange(msg.new_view);
}

void SeeMoReReplica::EnterView(uint64_t view, SeeMoReMode mode) {
  if (mode != mode_) ++stats_.mode_changes;
  mode_ = mode;
  ViewChangingReplica::EnterView(view, static_cast<uint8_t>(mode));
  pending_mode_.erase(pending_mode_.begin(), pending_mode_.upper_bound(view));
}

}  // namespace seemore
