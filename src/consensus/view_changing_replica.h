// The consensus core every protocol runs on (DESIGN.md §8). It writes once
// what SeeMoRe's Lion, Dog and Peacock modes and the PBFT, S-UpRight and
// Paxos baselines share around their agreement phases.
//
// The request path (§5.1): the frame prologue (tag, channel MAC, the
// replica-channel rule), client admission (impersonation check, cached
// reply for a retransmission, ordering at the primary, the one-time relay
// of a repeated timestamp to the primary), one reply builder, and the tail
// every commit runs (replies, checkpoint, view timer, next proposal).
//
// The view-change flow of §5.1-§5.3: the view timer that suspects the
// primary, the escalation when a view change stalls, the per-view store of
// validated VIEW-CHANGE records and the loop that joins a view change,
// NEW-VIEW formation once this replica is the authority and holds a quorum,
// view entry, the NEW-VIEW floor, re-proposal selection and install, and
// the view a durable restart comes back in. VIEW-CHANGE and NEW-VIEW name
// batches by digest; the authority fetches any batch it lacks before it
// signs, and a replica that installs a re-proposal without its batch
// fetches it and resumes the entry when it lands.
//
// Protocols supply only the policy hooks below (DESIGN.md §8 tabulates
// them); nothing here branches on the protocol.

#ifndef SEEMORE_CONSENSUS_VIEW_CHANGING_REPLICA_H_
#define SEEMORE_CONSENSUS_VIEW_CHANGING_REPLICA_H_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/batch.h"
#include "consensus/checkpointing_replica.h"
#include "consensus/primary_pipeline.h"

namespace seemore {

/// The value a NEW-VIEW re-proposes for one sequence number, named by the
/// digest of its batch.
struct Reproposal {
  uint64_t view = 0;  // view of the evidence it was chosen from
  Digest digest;
  bool committed = false;  // chosen from commit evidence
};

/// Sequence number -> re-proposal, ascending as a NEW-VIEW carries them.
using Reproposals = std::map<uint64_t, Reproposal>;

/// Offers evidence for `seq`. Commit evidence beats prepare evidence; within
/// one kind the higher view wins, and of equal views the first offer stays.
inline void OfferReproposal(Reproposals& set, uint64_t seq, uint64_t view,
                            const Digest& digest, bool committed = false) {
  auto [it, fresh] = set.try_emplace(seq);
  Reproposal& current = it->second;
  if (!fresh && !(committed && !current.committed) &&
      !(committed == current.committed && view > current.view)) {
    return;
  }
  current = Reproposal{view, digest, committed};
}

/// Fills every sequence number in (floor, high] that no evidence named with
/// a no-op (§5.1 step 3).
inline void FillWithNoops(Reproposals& set, uint64_t floor, uint64_t high) {
  for (uint64_t seq = floor + 1; seq <= high; ++seq) {
    if (set.count(seq) != 0) continue;
    set[seq] = Reproposal{0, Batch::NoopDigest(), false};
  }
}

/// `Record` is the protocol's validated VIEW-CHANGE. Its `stable_seq` is the
/// checkpoint floor the record proves: its certificate's seq, or in the
/// crash model, where no one lies, the seq it claims. `Names(seq, digest)`
/// says whether it lists `digest` at `seq`, so its sender vouches for (and
/// is asked for) that batch.
template <typename Record>
class ViewChangingReplica : public CheckpointingReplica {
 public:
  uint64_t view() const { return view_; }
  bool in_view_change() const { return in_view_change_; }
  /// The flat rotation over all replicas; SeeMoRe's depends on its mode.
  PrincipalId current_primary() const override {
    return config_.FlatPrimary(view_);
  }
  bool IsPrimary() const { return current_primary() == id_; }

 protected:
  using ViewChangeRecord = Record;
  /// The VIEW-CHANGE records collected for one target view, by sender.
  using Records = std::map<PrincipalId, Record>;

  /// A stalled view change doubles the view timer up to this cap.
  static constexpr SimTime kMaxViewChangeTimeout = Seconds(2);
  /// After entering a view the timer runs this many base timeouts: the
  /// re-proposed log needs a full re-agreement round under post-view-change
  /// backlog before anyone may suspect the new primary.
  static constexpr int kViewEntryGrace = 3;

  ViewChangingReplica(Transport* transport, TimerService* timers,
                      const KeyStore* keystore, CryptoMemo* memo,
                      PrincipalId id, const ClusterConfig& config,
                      std::unique_ptr<StateMachine> state_machine,
                      const CostModel& costs, const CoreTags& tags)
      : CheckpointingReplica(transport, timers, keystore, memo, id, config,
                             std::move(state_machine), costs, tags),
        pipeline_(config.batch_max, config.pipeline_max),
        current_vc_timeout_(config.view_change_timeout) {}

  // ----- request-path hooks -----
  /// Every frame tag the prologue (HandleMessage) does not handle: the
  /// protocol's agreement, view-change and checkpoint traffic. The decoder
  /// is past the tag byte; current_frame() is the whole frame.
  virtual void HandleProtocolMessage(uint8_t tag, PrincipalId from,
                                     Decoder& dec) = 0;
  /// Must a client's signature verify before this replica orders or relays
  /// its request? By default no: the crash model trusts its clients.
  virtual bool ChecksClientSignature() const { return false; }
  /// The mode byte every reply carries; 0 outside SeeMoRe.
  virtual uint8_t ReplyMode() const { return 0; }
  /// Charges the authentication of one reply; by default a MAC.
  virtual void ChargeReplyAuth() { ChargeMac(); }
  /// At the primary: open and propose batches while the pipeline allows.
  virtual void TryPropose() = 0;

  // ----- the shared request path -----
  /// The frame prologue: decode the tag and charge the pairwise channel MAC
  /// (§3.1). A REQUEST may come from a client; anything else only on a
  /// replica-to-replica channel. Batch-fetch frames are the core's;
  /// everything else goes to HandleProtocolMessage.
  void HandleMessage(PrincipalId from, const Payload& frame) final {
    Decoder dec = FrameDecoder(frame);
    const uint8_t tag = dec.GetU8();
    if (!dec.ok()) return;
    ChargeMac();
    if (tag == kMsgRequest) {
      DispatchTyped(this, from, dec, &ViewChangingReplica::HandleRequest);
      return;
    }
    if (!IsReplicaId(from) || DispatchBatchFetch(tag, from, dec)) return;
    HandleProtocolMessage(tag, from, dec);
  }

  /// Signs and sends one reply to `client`: a fresh result or a cached one.
  void SendReply(PrincipalId client, uint64_t timestamp, const Bytes& result) {
    Reply reply;
    reply.mode = ReplyMode();
    reply.view = view_;
    reply.timestamp = timestamp;
    reply.replica = id_;
    reply.result = result;
    if (HasByz(kByzLieToClients) && !reply.result.empty()) {
      reply.result[0] ^= 0xff;
    }
    reply.Sign(signer_);
    ChargeReplyAuth();
    SendTo(client, reply.ToMessage());
  }

  /// What follows every commit: answer the clients of `executed` when
  /// `replies` (a duplicate without a cached result has no answer), cut a
  /// checkpoint if one is due, restart or disarm the view timer, and at the
  /// primary propose again.
  void FinishCommit(const std::vector<ExecutedRequest>& executed,
                    bool replies) {
    for (const ExecutedRequest& ex : executed) {
      if (replies && !(ex.duplicate && ex.result.empty())) {
        SendReply(ex.client, ex.timestamp, ex.result);
      }
    }
    MaybeCheckpoint();
    RestartOrDisarmViewTimer();
    if (IsPrimary() && !in_view_change_) TryPropose();
  }
  /// The proposal window moved.
  void OnStableAdvanced() override {
    if (IsPrimary() && !in_view_change_) TryPropose();
  }

  // ----- view-change hooks -----
  /// Does this replica time the primary while work stays uncommitted?
  virtual bool WatchesPrimary() const { return true; }
  /// Multicast this replica's VIEW-CHANGE for `new_view` and keep its own
  /// record (StoreViewChange), if its role sends one.
  virtual void SendViewChange(uint64_t new_view) = 0;
  /// The join rule: do `records`, for a view above ours that we are not
  /// already moving to, make this replica join that view change? `named`
  /// marks the view that the VIEW-CHANGE just received names.
  virtual bool JoinsViewChange(const Records& records, bool named) const = 0;
  /// Does this replica issue the NEW-VIEW for `view`?
  virtual bool IsNewViewAuthority(uint64_t view) const = 0;
  /// Are `records` a NEW-VIEW quorum?
  virtual bool IsNewViewQuorum(const Records& records) const = 0;
  /// Build, multicast and install the NEW-VIEW for `view` once this replica
  /// HoldsBatches of every re-proposal it names.
  virtual void FormNewView(uint64_t view, const Records& records) = 0;
  /// The batch of a re-proposal installed without it arrived (the slot now
  /// has it). Votes went out at the install, since agreement is on the
  /// digest; commit now if the votes suffice.
  virtual void ResumeReproposal(uint64_t seq, SlotCore& slot) = 0;

  // ----- the shared flow -----
  /// Starts the view timer unless it runs, a view change is under way, or
  /// this replica does not watch the primary. Our own CPU backlog does not
  /// count against the primary: right after a view change every node burns
  /// milliseconds re-running agreement on the re-proposed log, and a timer
  /// that ignores that work self-destructs the new view.
  void ArmViewTimer() {
    if (view_timer_ != 0 || in_view_change_ || !WatchesPrimary()) return;
    view_timer_ = StartTimer(current_vc_timeout_ + CpuBacklog(), [this] {
      view_timer_ = 0;
      StartViewChange(view_ + 1);
    });
  }

  /// Progress: drop back from any grace or escalated timeout, and keep
  /// timing only while work stays uncommitted.
  void RestartOrDisarmViewTimer() {
    CancelTimer(view_timer_);
    current_vc_timeout_ = config_.view_change_timeout;
    if (log_.UncommittedSlots() > 0) ArmViewTimer();
  }

  /// Moves toward `new_view` unless we are at or past it: send our
  /// VIEW-CHANGE, form the NEW-VIEW if we can, and escalate to the next
  /// view if this one stalls (its primary may be dead too).
  void StartViewChange(uint64_t new_view) {
    if (new_view <= view_ || (in_view_change_ && new_view <= vc_target_)) {
      return;
    }
    in_view_change_ = true;
    vc_target_ = new_view;
    ++stats_.view_changes_started;
    CancelTimer(view_timer_);
    SendViewChange(new_view);
    MaybeFormNewView(new_view);
    current_vc_timeout_ =
        std::min<SimTime>(current_vc_timeout_ * 2, kMaxViewChangeTimeout);
    view_timer_ = StartTimer(current_vc_timeout_ + CpuBacklog(), [this] {
      view_timer_ = 0;
      if (in_view_change_) StartViewChange(vc_target_ + 1);
    });
  }

  void StoreViewChange(uint64_t view, PrincipalId from, Record record) {
    vc_msgs_[view][from] = std::move(record);
  }

  /// A validated VIEW-CHANGE for `new_view`, above our view: keep it, join
  /// the lowest view the join rule accepts, then form the NEW-VIEW if we
  /// are its authority and now hold a quorum.
  void AcceptViewChange(uint64_t new_view, PrincipalId from, Record record) {
    StoreViewChange(new_view, from, std::move(record));
    for (const auto& [target, records] : vc_msgs_) {
      if (target <= view_ || (in_view_change_ && target <= vc_target_)) {
        continue;
      }
      if (JoinsViewChange(records, target == new_view)) {
        StartViewChange(target);  // may erase `records`: leave the loop
        break;
      }
    }
    MaybeFormNewView(new_view);
  }

  /// Enters `view`; any view change is over. `durable_tag` is written with
  /// the view (SeeMoRe: its mode).
  void EnterView(uint64_t view, uint8_t durable_tag = 0) {
    view_ = view;
    ClearProposerQuiescence();
    durable().NoteView(view, durable_tag);
    in_view_change_ = false;
    vc_target_ = 0;
    awaiting_new_view_ = 0;
    CancelTimer(view_timer_);
    current_vc_timeout_ = config_.view_change_timeout * kViewEntryGrace;
    // A view change may have nooped requests the admission table says were
    // handled; client retransmissions must be accepted afresh (the execution
    // engine still deduplicates anything that really committed).
    pipeline_.ForgetAdmissions();
    // Uncommitted slots are superseded by the NEW-VIEW's re-proposals,
    // which the caller installs next; kept, they would re-arm the view
    // timer forever. Their batches stay as spares, so re-proposing the same
    // digest needs no fetch.
    log_.EraseUncommitted([this](uint64_t seq, SlotCore& slot) {
      KeepSpareBatch(seq, slot.digest, std::move(slot.batch));
    });
    // Earlier fetches are moot: the install asks again for what it lacks.
    CancelBatchFetches();
    vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.upper_bound(view));
  }

  /// Moves out the records held for `view` (none: empty). A NEW-VIEW's
  /// receiver takes them before EnterView drops them: their senders vouch
  /// for the batches the NEW-VIEW names.
  Records TakeViewChanges(uint64_t view) {
    auto it = vc_msgs_.find(view);
    if (it == vc_msgs_.end()) return Records();
    Records records = std::move(it->second);
    vc_msgs_.erase(it);
    return records;
  }

  /// The NEW-VIEW floor: the highest stable seq `records` prove, and the
  /// first sender proving it (this replica when none proves above 0).
  std::pair<uint64_t, PrincipalId> Floor(const Records& records) const {
    uint64_t floor = 0;
    PrincipalId holder = id_;
    for (const auto& [sender, record] : records) {
      if (record.stable_seq > floor) {
        floor = record.stable_seq;
        holder = sender;
      }
    }
    return {floor, holder};
  }

  /// The stable seq a VIEW-CHANGE proves: its certificate's (genesis proves
  /// 0), which the seq it claims must equal. Taken on trust, a claim above
  /// the certificate would let one Byzantine sender lift the NEW-VIEW floor
  /// over every honest prepared proof.
  static Result<uint64_t> CertifiedStableSeq(uint64_t claimed,
                                             const CheckpointCert& cert) {
    if (claimed != cert.seq()) {
      return Status::Corruption("stable seq not proven by its certificate");
    }
    return claimed;
  }

  /// The authority holds the batch of every re-proposal its NEW-VIEW names
  /// before it signs. True when it holds all of `chosen`'s; otherwise it
  /// fetches the missing ones from the senders of `records` that name them,
  /// and FormNewView runs again as they arrive.
  bool HoldsBatches(uint64_t view, const Reproposals& chosen,
                    const Records& records) {
    bool all = true;
    for (const auto& [seq, proposal] : chosen) {
      if (seq <= ckpt_.stable_seq() ||
          LocalBatch(seq, proposal.digest) != nullptr) {
        continue;
      }
      all = false;
      FetchBatch(seq, proposal.digest,
                 Vouchers(records, seq, proposal.digest, {}));
    }
    awaiting_new_view_ = all ? 0 : view;
    return all;
  }

  /// Installs `digest` as this view's proposal for `seq` in a fresh slot
  /// (votes from earlier views must never count toward this one) that keeps
  /// the committed mark, so nothing executes twice. The slot takes the batch
  /// this replica holds for `digest`; without one it is `awaiting_batch`,
  /// fetched from `sources` (the NEW-VIEW's sender) and then from the
  /// senders of `vouching` (the view's VIEW-CHANGE records) that name it;
  /// executing it waits for ResumeReproposal. The authority, which holds
  /// every batch it names, passes neither.
  SlotCore& InstallReproposal(uint64_t seq, const Digest& digest,
                              const std::vector<PrincipalId>& sources = {},
                              const Records& vouching = {}) {
    SlotCore* prior = log_.Find(seq);
    const bool was_committed =
        (prior != nullptr && prior->committed()) || exec_.HasCommitted(seq);
    Batch batch;
    bool held = false;
    if (prior != nullptr && prior->has_batch() && prior->digest == digest) {
      batch = std::move(prior->batch);
      held = true;
    } else {
      held = TakeSpareBatch(seq, digest, &batch);
    }
    SlotCore& slot = log_.ResetSlot(seq);
    if (held) {
      slot.batch = std::move(batch);
      log_.SetHasBatch(slot, true);
    } else {
      slot.awaiting_batch = true;
      FetchBatch(seq, digest, Vouchers(vouching, seq, digest, sources));
    }
    slot.digest = digest;
    slot.view = view_;
    log_.SetCommitted(slot, was_committed);
    return slot;
  }

  /// Handles a BATCH-REQUEST or BATCH-RESPONSE (the decoder is past the tag
  /// byte); false for any other tag. Each fetched batch goes into the slot
  /// awaiting it, whose entry then resumes, or else stays a spare for the
  /// NEW-VIEW this replica waits to form, which is tried once per response.
  bool DispatchBatchFetch(uint8_t tag, PrincipalId from, Decoder& dec) {
    std::vector<FetchedBatch> fetched;
    if (!HandleBatchFetch(tag, from, dec, &fetched)) return false;
    if (fetched.empty()) return true;
    bool resumed = false;
    for (FetchedBatch& batch : fetched) {
      SlotCore* slot = log_.Find(batch.seq);
      if (slot != nullptr && slot->awaiting_batch &&
          slot->digest == batch.digest) {
        slot->batch = std::move(batch.batch);
        log_.SetHasBatch(*slot, true);
        ResumeReproposal(batch.seq, *slot);
        resumed = true;
      } else {
        KeepSpareBatch(batch.seq, batch.digest, std::move(batch.batch));
      }
    }
    if (resumed && log_.UncommittedSlots() > 0) ArmViewTimer();
    if (awaiting_new_view_ != 0) MaybeFormNewView(awaiting_new_view_);
    return true;
  }

  /// Sends a VIEW-CHANGE or NEW-VIEW frame naming `entries` signed entries
  /// to every other replica, counting it in the stats.
  void MulticastViewChangeFrame(const Payload& frame, uint64_t entries) {
    if (crashed()) return;
    SendToMany(all_replicas_, frame);
    CountViewChangeFrame(frame, entries,
                         static_cast<uint64_t>(config_.n() - 1));
  }
  void CountViewChangeFrame(const Payload& frame, uint64_t entries,
                            uint64_t receivers) {
    stats_.view_change_bytes_sent += frame.size() * receivers;
    stats_.view_change_msgs_sent += receivers;
    stats_.view_change_entries_sent += entries * receivers;
  }

  /// Rejoin in the last durably entered view: voting in an older view after
  /// a restart could contradict the pre-crash incarnation.
  void OnDurableRestore(const RecoveredImage& image) override {
    if (image.has_view) view_ = image.view;
    CheckpointingReplica::OnDurableRestore(image);
  }

  uint64_t view_ = 0;
  bool in_view_change_ = false;
  /// The primary's proposal pipeline (consensus/primary_pipeline.h).
  PrimaryPipeline pipeline_;

 private:
  /// A client REQUEST, from the client or relayed by a replica (§5.1).
  void HandleRequest(PrincipalId from, Request request) {
    // Channel authentication (§3.1): a request arriving directly from a
    // client channel must name that client. Without this, a rogue client
    // could impersonate another and poison its timestamp sequence — the
    // crash model has no signatures to catch it otherwise.
    if (IsClientPrincipal(from) && from != request.client) return;
    // Retransmission of an executed request: any replica resends the cached
    // reply; the client's reply policy decides how many it needs.
    if (exec_.SeenTimestamp(request.client, request.timestamp)) {
      auto cached = exec_.CachedReply(request.client, request.timestamp);
      if (cached.has_value()) {
        SendReply(request.client, request.timestamp, *cached);
      }
      return;
    }
    if (ChecksClientSignature()) {
      ChargeVerify();
      if (!request.VerifySignature(*keystore_)) return;
    }
    if (in_view_change_) return;
    if (IsPrimary()) {
      if (!pipeline_.Admit(request)) return;  // already queued or proposed
      pipeline_.Enqueue(std::move(request));
      TryPropose();
      return;
    }
    // Clients multicast to the receiving network, so the primary has its
    // own copy on the first transmission. A repeated timestamp means the
    // client timed out: relay it to the primary once (its copy may have
    // been lost, or the client cannot reach it), and arm the timer that
    // suspects a primary under which the request never commits.
    if (from == request.client &&
        pipeline_.NoteDirectDelivery(request.client, request.timestamp)) {
      SendTo(current_primary(), request.ToMessage());
    }
    ArmViewTimer();
  }

  /// `first`, then every sender of `records` that names `digest` at `seq`;
  /// each once, and never this replica.
  std::vector<PrincipalId> Vouchers(const Records& records, uint64_t seq,
                                    const Digest& digest,
                                    const std::vector<PrincipalId>& first)
      const {
    std::vector<PrincipalId> vouchers;
    const auto add = [&](PrincipalId r) {
      if (r != id_ && std::find(vouchers.begin(), vouchers.end(), r) ==
                          vouchers.end()) {
        vouchers.push_back(r);
      }
    };
    for (PrincipalId r : first) add(r);
    for (const auto& [sender, record] : records) {
      if (record.Names(seq, digest)) add(sender);
    }
    return vouchers;
  }

  void MaybeFormNewView(uint64_t view) {
    if (view_ >= view || !IsNewViewAuthority(view)) return;
    auto it = vc_msgs_.find(view);
    if (it == vc_msgs_.end() || !IsNewViewQuorum(it->second)) return;
    FormNewView(view, it->second);
  }

  uint64_t vc_target_ = 0;  // the view a running view change moves to
  /// The view whose NEW-VIEW this authority waits to form until fetched
  /// batches arrive (0: none).
  uint64_t awaiting_new_view_ = 0;
  EventId view_timer_ = 0;
  SimTime current_vc_timeout_;
  std::map<uint64_t, Records> vc_msgs_;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_VIEW_CHANGING_REPLICA_H_
