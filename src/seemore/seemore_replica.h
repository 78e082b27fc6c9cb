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

#include "consensus/checkpoint.h"
#include "consensus/instance_log.h"
#include "consensus/primary_pipeline.h"
#include "consensus/proofs.h"
#include "consensus/replica_base.h"
#include "wire/messages.h"

namespace seemore {

class SeeMoReReplica : public ReplicaBase {
 public:
  SeeMoReReplica(Transport* transport, TimerService* timers,
                 const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
                 const ClusterConfig& config,
                 std::unique_ptr<StateMachine> state_machine,
                 const CostModel& costs);

  SeeMoReMode mode() const { return mode_; }
  uint64_t view() const { return view_; }
  bool in_view_change() const { return in_view_change_; }
  uint64_t last_executed() const { return exec_.last_executed(); }
  uint64_t stable_checkpoint() const { return ckpt_.stable_seq(); }
  PrincipalId current_primary() const {
    return config_.PrimaryOf(mode_, view_);
  }
  /// Diagnostics: slots proposed but not yet committed (tests, debugging).
  int uncommitted_slots() const { return log_.UncommittedSlots(); }
  /// Diagnostics: live instance-log slots (property tests bound this).
  size_t log_occupancy() const { return log_.occupied(); }
  /// Diagnostics: the instance log itself (footprint tests read its ring).
  const InstanceLog& instance_log() const { return log_; }
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

 private:
  /// A validated VIEW-CHANGE message, indexed for new-view computation.
  /// Entries are the typed wire entries (wire/messages.h SmVcEntry).
  struct VcRecord {
    SeeMoReMode mode = SeeMoReMode::kLion;
    uint64_t stable_seq = 0;
    CheckpointCert cert;
    std::map<uint64_t, SmVcEntry> prepares;      // Lion/Dog P set
    std::map<uint64_t, SmVcEntry> commits;       // Lion C set
    std::map<uint64_t, PreparedProof> proofs;    // Peacock prepared certs
    /// Highest view with evidence created under `mode` (for "last active
    /// view" determination within the current mode epoch).
    uint64_t LastActiveView(SeeMoReMode mode) const;
  };

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

  // ----- checkpoints / state transfer -----
  void MaybeCheckpoint();
  void HandleCheckpoint(PrincipalId from, CheckpointMsg msg);
  void CountCheckpointVote(const CheckpointMsg& msg);
  bool VerifyCheckpointCert(const CheckpointCert& cert) const;
  void AdvanceStable(uint64_t seq, const Digest& digest, CheckpointCert cert,
                     PrincipalId helper);
  void HandleStateRequest(PrincipalId from, StateRequestMsg msg);
  void HandleStateResponse(PrincipalId from, StateResponseMsg msg);
  void RequestStateFrom(PrincipalId target);

  // ----- view catch-up ----------------------------------------------------
  /// Called on protocol traffic for a view above ours that is not
  /// self-certifying (Peacock, where the primary is untrusted): ask the
  /// sender to relay the stored NEW-VIEW that activated its view.
  void RequestNewViewFrom(PrincipalId target);
  void HandleNewViewRequest(PrincipalId from, NewViewRequestMsg msg);

  // ----- view change / mode switch -----
  void ArmViewTimer();
  void RestartOrDisarmViewTimer();
  void StartViewChange(uint64_t new_view);
  SmViewChangeMsg BuildViewChangeMessage(uint64_t new_view) const;
  /// Semantic validation of a structurally-decoded VIEW-CHANGE (signatures,
  /// certificates, sender binding); returns the indexed record. `frame_id`
  /// is the delivered frame's buffer identity, keying the verify memo so n
  /// receivers of one multicast pay the real crypto once; pass 0 when the
  /// message did not arrive as a shared frame (own-message validation).
  Result<VcRecord> ValidateViewChange(SmViewChangeMsg msg, PrincipalId from,
                                      uint64_t frame_id) const;
  void HandleViewChange(PrincipalId from, SmViewChangeMsg msg);
  void MaybeJoinViewChange();
  /// Mode the protocol will run in view `v` (honours pending MODE-CHANGE).
  SeeMoReMode ModeForView(uint64_t v) const;
  /// Whether this replica issues the NEW-VIEW for `new_view`.
  bool IsNewViewAuthority(uint64_t new_view) const;
  bool ViewChangeQuorumReached(uint64_t new_view) const;
  void MaybeFormNewView(uint64_t new_view);
  void HandleNewView(PrincipalId from, SmNewViewMsg msg);
  void HandleModeChange(PrincipalId from, SmModeChangeMsg msg);
  void EnterView(uint64_t view, SeeMoReMode mode);
  bool IsReplicaId(PrincipalId r) const { return r >= 0 && r < config_.n(); }

  SeeMoReMode mode_;
  uint64_t view_ = 0;
  bool in_view_change_ = false;
  uint64_t vc_target_ = 0;
  uint64_t window_;

  /// The shared consensus core (consensus/): the slot log, the primary's
  /// proposal pipeline and the checkpoint state.
  InstanceLog log_;
  PrimaryPipeline pipeline_;
  CheckpointTracker ckpt_;

  std::map<uint64_t, std::map<PrincipalId, VcRecord>> vc_msgs_;
  /// view -> mode requested by a signed MODE-CHANGE for that view.
  std::map<uint64_t, SeeMoReMode> pending_mode_;

  EventId view_timer_ = 0;
  SimTime current_vc_timeout_ = 0;
  /// Last time we asked a peer for a snapshot (rate limit; a lost response
  /// must not wedge recovery).
  SimTime last_state_request_ = -Seconds(1);
  /// Last time we asked a peer to relay a NEW-VIEW (same rate-limit idea).
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
