// The view-change flow of §5.1-§5.3 and of the PBFT and Paxos baselines,
// written once for every protocol: the view timer that suspects the
// primary, the escalation when a view change stalls, the per-view store of
// validated VIEW-CHANGE records and the loop that joins a view change,
// NEW-VIEW formation once this replica is the authority and holds a quorum,
// view entry, the NEW-VIEW floor, re-proposal selection and install, and
// the view a durable restart comes back in. Protocols supply only the
// policy hooks below (DESIGN.md §8 tabulates them); nothing here branches
// on the protocol.

#ifndef SEEMORE_CONSENSUS_VIEW_CHANGING_REPLICA_H_
#define SEEMORE_CONSENSUS_VIEW_CHANGING_REPLICA_H_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "consensus/batch.h"
#include "consensus/checkpointing_replica.h"
#include "consensus/primary_pipeline.h"

namespace seemore {

/// The value a NEW-VIEW re-proposes for one sequence number.
struct Reproposal {
  uint64_t view = 0;  // view of the evidence it was chosen from
  Digest digest;
  Batch batch;
  bool committed = false;  // chosen from commit evidence
};

/// Sequence number -> re-proposal, ascending as a NEW-VIEW carries them.
using Reproposals = std::map<uint64_t, Reproposal>;

/// Offers evidence for `seq`. Commit evidence beats prepare evidence; within
/// one kind the higher view wins, and of equal views the first offer stays.
inline void OfferReproposal(Reproposals& set, uint64_t seq, uint64_t view,
                            const Digest& digest, const Batch& batch,
                            bool committed = false) {
  auto [it, fresh] = set.try_emplace(seq);
  Reproposal& current = it->second;
  if (!fresh && !(committed && !current.committed) &&
      !(committed == current.committed && view > current.view)) {
    return;
  }
  current = Reproposal{view, digest, batch, committed};
}

/// Fills every sequence number in (floor, high] that no evidence named with
/// a no-op (§5.1 step 3).
inline void FillWithNoops(Reproposals& set, uint64_t floor, uint64_t high) {
  for (uint64_t seq = floor + 1; seq <= high; ++seq) {
    if (set.count(seq) != 0) continue;
    Batch noop = Batch::Noop();
    const Digest digest = noop.ComputeDigest();
    set[seq] = Reproposal{0, digest, std::move(noop), false};
  }
}

/// `Record` is the protocol's validated VIEW-CHANGE. Its `stable_seq` is the
/// checkpoint floor the record proves: its certificate's seq, or in the
/// crash model, where no one lies, the seq it claims.
template <typename Record>
class ViewChangingReplica : public CheckpointingReplica {
 public:
  uint64_t view() const { return view_; }
  bool in_view_change() const { return in_view_change_; }

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
                      const CostModel& costs, const CheckpointTags& tags)
      : CheckpointingReplica(transport, timers, keystore, memo, id, config,
                             std::move(state_machine), costs, tags),
        pipeline_(config.batch_max, config.pipeline_max),
        current_vc_timeout_(config.view_change_timeout) {}

  // ----- policy hooks -----
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
  /// Build, multicast and install the NEW-VIEW for `view`. `records` die at
  /// EnterView, so copy out what the install needs first.
  virtual void FormNewView(uint64_t view, const Records& records) = 0;

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
    CancelTimer(view_timer_);
    current_vc_timeout_ = config_.view_change_timeout * kViewEntryGrace;
    // A view change may have nooped requests the admission table says were
    // handled; client retransmissions must be accepted afresh (the execution
    // engine still deduplicates anything that really committed).
    pipeline_.ForgetAdmissions();
    // Uncommitted slots are superseded by the NEW-VIEW's re-proposals,
    // which the caller installs next; kept, they would re-arm the view
    // timer forever.
    log_.EraseUncommitted();
    vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.upper_bound(view));
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

  /// Installs `batch` as this view's proposal for `seq` in a fresh slot
  /// (votes from earlier views must never count toward this one) that keeps
  /// the committed mark, so nothing executes twice.
  SlotCore& InstallReproposal(uint64_t seq, Batch batch,
                              const Digest& digest) {
    const SlotCore* prior = log_.Find(seq);
    const bool was_committed =
        (prior != nullptr && prior->committed()) || exec_.HasCommitted(seq);
    SlotCore& slot = log_.ResetSlot(seq);
    slot.batch = std::move(batch);
    log_.SetHasBatch(slot, true);
    slot.digest = digest;
    slot.view = view_;
    log_.SetCommitted(slot, was_committed);
    return slot;
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
  void MaybeFormNewView(uint64_t view) {
    if (view_ >= view || !IsNewViewAuthority(view)) return;
    auto it = vc_msgs_.find(view);
    if (it == vc_msgs_.end() || !IsNewViewQuorum(it->second)) return;
    FormNewView(view, it->second);
  }

  uint64_t vc_target_ = 0;  // the view a running view change moves to
  EventId view_timer_ = 0;
  SimTime current_vc_timeout_;
  std::map<uint64_t, Records> vc_msgs_;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_VIEW_CHANGING_REPLICA_H_
