// SeeMoRe replica: the paper's hybrid fault-tolerant protocol (§5) in all
// three operating modes, with dynamic mode switching (§5.4).
//
//   Lion (§5.1)    trusted primary, all N = 3m+2c+1 replicas participate,
//                  2 phases, O(n) messages, quorum 2m+c+1. Accepts are
//                  UNSIGNED (they flow only to the trusted primary);
//                  prepares/commits are signed by the primary.
//   Dog (§5.2)     trusted primary assigns sequence numbers, then 3m+1
//                  public proxies agree among themselves (signed accepts,
//                  quorum 2m+1, 2 phases, O(n²) in the proxy set). Other
//                  nodes execute after 2m+1 matching INFORMs.
//   Peacock (§5.3) PBFT among the 3m+1 proxies (untrusted primary,
//                  3 phases, quorum 2m+1), pre-prepare broadcast to all
//                  nodes, m+1 matching INFORMs at passive nodes, and a
//                  trusted *transferer* running view changes.
//
// View changes follow §5.1-§5.3: trusted new primaries (Lion/Dog) and the
// trusted transferer (Peacock) do not embed view-change proof sets in
// NEW-VIEW messages — the paper's headline saving — because their own
// signature on each re-proposed entry is sufficient authority.
//
// Mode switching (§5.4): a trusted replica multicasts a signed
// <MODE-CHANGE, v+1, π'> and the protocol performs a view change whose
// NEW-VIEW is issued under the new mode by the new mode's authority.
//
// All wire parsing goes through the typed codecs in wire/messages.h; all
// network/timer access goes through the interfaces in net/transport.h.

#ifndef SEEMORE_SEEMORE_SEEMORE_REPLICA_H_
#define SEEMORE_SEEMORE_SEEMORE_REPLICA_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/proofs.h"
#include "consensus/view_changing_replica.h"
#include "wire/messages.h"

namespace seemore {

/// A validated VIEW-CHANGE, indexed for new-view computation. Entries are
/// the typed wire entries (wire/messages.h SmVcEntry).
struct SeeMoReViewChangeRecord {
  uint64_t stable_seq = 0;                     // its certificate's seq
  std::map<uint64_t, SmVcEntry> prepares;      // Lion/Dog P set
  std::map<uint64_t, SmVcEntry> commits;       // Lion C set
  std::map<uint64_t, PreparedProof> proofs;    // Peacock prepared certs
  /// Highest view with evidence created under `mode` (for "last active
  /// view" determination within the current mode epoch).
  uint64_t LastActiveView(SeeMoReMode mode) const;
};

class SeeMoReReplica : public ViewChangingReplica<SeeMoReViewChangeRecord> {
 public:
  SeeMoReReplica(Transport* transport, TimerService* timers,
                 const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
                 const ClusterConfig& config,
                 std::unique_ptr<StateMachine> state_machine,
                 const CostModel& costs);

  SeeMoReMode mode() const { return mode_; }
  PrincipalId current_primary() const {
    return config_.PrimaryOf(mode_, view_);
  }
  bool IsPrimary() const { return current_primary() == id_; }

  /// Dynamic mode switching (§5.4). Must be invoked on the trusted replica
  /// that is the authority for view v+1 under `new_mode` (the new primary
  /// for Lion/Dog, the transferer for Peacock); returns
  /// FailedPrecondition otherwise. The switch multicasts a signed
  /// MODE-CHANGE and drives a view change into the new mode.
  Status RequestModeSwitch(SeeMoReMode new_mode);

  /// The trusted authority for view `v` under `mode` (primary or transferer).
  PrincipalId SwitchAuthority(SeeMoReMode mode, uint64_t v) const {
    return mode == SeeMoReMode::kPeacock ? config_.Transferer(v)
                                         : config_.TrustedPrimary(v);
  }
  /// Where a switch to `mode` must be requested, from this replica's view:
  /// the authority of the first of views view+1 .. view+S that `live`
  /// accepts (the view change would skip a dead one anyway); -1 if none.
  PrincipalId LiveSwitchAuthority(
      SeeMoReMode mode, const std::function<bool(PrincipalId)>& live) const {
    for (int ahead = 1; ahead <= config_.s; ++ahead) {
      const PrincipalId authority = SwitchAuthority(mode, view_ + ahead);
      if (live(authority)) return authority;
    }
    return -1;
  }

 protected:
  void HandleMessage(PrincipalId from, const Payload& frame) override;
  void OnDurableRestore(const RecoveredImage& image) override;

  // ----- checkpoint policy (consensus/checkpointing_replica.h) -----
  /// Lion/Dog: only the trusted primary's signed checkpoint certifies
  /// (§5.1 "State Transfer"). Peacock: the proxies run quorum checkpoints.
  bool EmitsCheckpoint() const override {
    return mode_ == SeeMoReMode::kPeacock ? IsProxyNow() : IsPrimary();
  }
  /// One trusted signer suffices (it cannot lie), else 2m+1 public signers
  /// (at least m+1 of them honest).
  bool IsCheckpointQuorum(
      const std::vector<PrincipalId>& signers) const override {
    for (PrincipalId signer : signers) {
      if (config_.IsTrusted(signer)) return true;
    }
    return static_cast<int>(signers.size()) >= 2 * config_.m + 1;
  }
  /// A trusted signer ahead of us is authoritative evidence we fell behind;
  /// untrusted signers only trigger a fetch through the stability quorum.
  bool FetchOnCheckpoint(const CheckpointMsg& msg) const override {
    return config_.IsTrusted(msg.replica) && msg.seq > exec_.last_executed();
  }
  void OnStableAdvanced() override {
    if (IsPrimary() && !in_view_change_) TryPropose();
  }

  // ----- view-change policy (consensus/view_changing_replica.h) -----
  /// Only a backup that takes part in agreement suspects the primary.
  bool WatchesPrimary() const override {
    return ParticipatesInAgreement() && !IsPrimary();
  }
  /// Who sends depends on the mode (seemore_view_change.cc header).
  void SendViewChange(uint64_t new_view) override;
  /// One trusted sender suffices (trusted nodes never lie), else m+1
  /// public senders (at least one honest); only a replica that takes part
  /// in agreement, or a trusted one, joins.
  bool JoinsViewChange(const Records& records, bool named) const override;
  /// The trusted authority of the view's mode: primary or transferer.
  bool IsNewViewAuthority(uint64_t view) const override;
  /// Lion: 2m+c+1 records; Dog/Peacock: 2m+1 from the proxies of the last
  /// active view.
  bool IsNewViewQuorum(const Records& records) const override;
  void FormNewView(uint64_t new_view, const Records& records) override;

 private:
  // ----- role helpers ----------------------------------------------------
  bool IsProxyNow() const {
    return config_.IsProxy(id_, view_);
  }
  std::vector<PrincipalId> Proxies() const { return config_.ProxySet(view_); }
  std::vector<PrincipalId> PassiveNodes() const;
  bool ParticipatesInAgreement() const;
  int CommitQuorum() const { return config_.CommitQuorum(mode_); }
  bool VerifyProposalSig(SeeMoReMode mode, uint64_t view, uint64_t seq,
                         const Digest& digest, const Signature& sig) const;
  /// Validity of a P-set entry: Lion/Dog entries are signed by that view's
  /// trusted primary (or new-view authority); Peacock entries are only
  /// self-certifying when signed by the trusted transferer — an untrusted
  /// Peacock primary's bare pre-prepare must come as a PreparedProof.
  bool VerifyVcPrepareEntry(const SmVcEntry& entry) const;

  // ----- normal case -----
  void HandleRequest(PrincipalId from, Request request);
  void PrimaryEnqueue(Request request);
  void TryPropose();
  void HandlePrepare(PrincipalId from, SmPrepareMsg msg);
  void HandleAcceptPlain(PrincipalId from, SmAcceptPlainMsg msg);
  void HandleAcceptSigned(PrincipalId from, SmAcceptSignedMsg msg);
  void HandleCommitPrimary(PrincipalId from, SmCommitPrimaryMsg msg);
  void HandleCommitVote(PrincipalId from, SmCommitVoteMsg msg);
  void HandleInform(PrincipalId from, SmInformMsg msg);
  void SendSignedAccept(uint64_t seq, SlotCore& slot);
  void CheckProxyCommit(uint64_t seq, SlotCore& slot);
  void CommitSlot(uint64_t seq, SlotCore& slot, bool replies, bool informs);
  void SendReply(const ExecutedRequest& executed);
  void SendInform(uint64_t seq, const SlotCore& slot);

  // ----- view catch-up ----------------------------------------------------
  /// Called on protocol traffic for a view above ours that is not
  /// self-certifying (Peacock, where the primary is untrusted): ask the
  /// sender to relay the stored NEW-VIEW that activated its view.
  void RequestNewViewFrom(PrincipalId target);
  void HandleNewViewRequest(PrincipalId from, NewViewRequestMsg msg);

  // ----- view change / mode switch -----
  SmViewChangeMsg BuildViewChangeMessage(uint64_t new_view) const;
  /// Semantic validation of a structurally-decoded VIEW-CHANGE (signatures,
  /// certificates, sender binding); returns the indexed record. `frame_id`
  /// is the delivered frame's buffer identity, keying the verify memo so n
  /// receivers of one multicast pay the real crypto once; pass 0 when the
  /// message did not arrive as a shared frame (own-message validation).
  Result<ViewChangeRecord> ValidateViewChange(SmViewChangeMsg msg,
                                              PrincipalId from,
                                              uint64_t frame_id) const;
  void HandleViewChange(PrincipalId from, SmViewChangeMsg msg);
  /// Mode the protocol will run in view `v` (honours pending MODE-CHANGE).
  SeeMoReMode ModeForView(uint64_t v) const;
  void HandleNewView(PrincipalId from, SmNewViewMsg msg);
  void HandleModeChange(PrincipalId from, SmModeChangeMsg msg);
  /// The shared view entry, plus the mode this view runs in.
  void EnterView(uint64_t view, SeeMoReMode mode);

  SeeMoReMode mode_;
  /// view -> mode requested by a signed MODE-CHANGE for that view.
  std::map<uint64_t, SeeMoReMode> pending_mode_;

  /// Last time we asked a peer to relay a NEW-VIEW (a lost response must not
  /// wedge recovery).
  SimTime last_nv_request_ = -Seconds(1);
  /// Per-peer rate limit on ANSWERING relay requests: NEW-VIEW-REQUEST is
  /// unsigned and the stored frame can be large, so without this a Byzantine
  /// peer could spam requests for bandwidth amplification.
  std::map<PrincipalId, SimTime> last_nv_relay_;
  /// The NEW-VIEW frame that activated the current view (empty when the view
  /// was entered some other way: genesis, trusted-primary fast-forward, or a
  /// durable restart). Kept verbatim so it can be relayed to replicas that
  /// slept through the view change — it is self-certifying (signed by the
  /// trusted authority), so relaying through untrusted peers is safe.
  Payload last_new_view_frame_;
};

}  // namespace seemore

#endif  // SEEMORE_SEEMORE_SEEMORE_REPLICA_H_
