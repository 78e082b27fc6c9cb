// Crash fault-tolerant baseline ("CFT" in the paper's §6): a Multi-Paxos /
// Viewstamped-Replication style protocol matching Table 1's Paxos row —
// 2 communication phases, O(n) messages, network 2f+1, quorum f+1.
//
// Normal case:   client -> leader; leader ACCEPT(v,n,batch) -> all;
//                replicas ACK -> leader; on f+1 (incl. self) leader sends
//                COMMIT -> all, executes and replies to the client.
// View change:   backup timers; VIEW-CHANGE(v+1, stable seq, accepted
//                entries) broadcast; new leader collects f+1 => NEW-VIEW
//                carrying re-proposals, which backups ACK like fresh
//                ACCEPTs.
// Checkpoints:   taken when execution advances checkpoint_period past the
//                previous one; stable at f+1 matching CHECKPOINT messages;
//                the stable point garbage-collects the log.
//
// Crash model only: messages are channel-authenticated but carry no
// public-key signatures (nodes never lie), mirroring BFT-SMaRt's CFT mode;
// reply signatures stand in for client MACs and are charged at MAC cost.

#ifndef SEEMORE_BASELINES_PAXOS_PAXOS_REPLICA_H_
#define SEEMORE_BASELINES_PAXOS_PAXOS_REPLICA_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/checkpoint.h"
#include "consensus/instance_log.h"
#include "consensus/primary_pipeline.h"
#include "consensus/replica_base.h"
#include "wire/messages.h"

namespace seemore {

class PaxosReplica : public ReplicaBase {
 public:
  PaxosReplica(Transport* transport, TimerService* timers,
               const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
               const ClusterConfig& config,
               std::unique_ptr<StateMachine> state_machine,
               const CostModel& costs);

  uint64_t view() const { return view_; }
  bool IsLeader() const { return config_.FlatPrimary(view_) == id_; }
  uint64_t last_executed() const { return exec_.last_executed(); }
  uint64_t stable_checkpoint() const { return ckpt_.stable_seq(); }
  bool in_view_change() const { return in_view_change_; }
  /// Diagnostics: slots proposed but not yet committed (tests, debugging).
  int uncommitted_slots() const { return log_.UncommittedSlots(); }
  /// Diagnostics: live instance-log slots (property tests bound this).
  size_t log_occupancy() const { return log_.occupied(); }
  /// Diagnostics: the instance log itself (footprint tests read its ring).
  const InstanceLog& instance_log() const { return log_; }

 protected:
  void HandleMessage(PrincipalId from, const Payload& frame) override;
  void OnDurableRestore(const RecoveredImage& image) override;

 private:
  // ----- normal case -----
  void HandleRequest(PrincipalId from, Request request);
  void LeaderEnqueue(Request request);
  void TryPropose();
  void HandleAccept(PrincipalId from, PaxosAcceptMsg msg);
  void HandleAck(PrincipalId from, PaxosAckMsg msg);
  void HandleCommit(PrincipalId from, PaxosCommitMsg msg);
  void CommitSlot(uint64_t seq, SlotCore& slot, bool send_replies);
  void SendReply(const ExecutedRequest& executed);

  // ----- checkpoints / state transfer -----
  void MaybeCheckpoint();
  void HandleCheckpoint(PrincipalId from, PaxosCheckpointMsg msg);
  void CountCheckpointVote(uint64_t seq, const Digest& digest,
                           PrincipalId voter);
  void AdvanceStable(uint64_t seq, const Digest& digest, PrincipalId helper);
  void HandleStateRequest(PrincipalId from, StateRequestMsg msg);
  void HandleStateResponse(PrincipalId from, PaxosStateResponseMsg msg);
  void RequestStateFrom(PrincipalId target);

  // ----- view change -----
  void ArmViewTimer();
  void RestartOrDisarmViewTimer();
  void StartViewChange(uint64_t new_view);
  void HandleViewChange(PrincipalId from, PaxosViewChangeMsg msg);
  void MaybeFormNewView(uint64_t new_view);
  void HandleNewView(PrincipalId from, PaxosNewViewMsg msg);
  void EnterView(uint64_t view);
  /// Entry-count sanity bound shared by view-change parsing (see the wire
  /// codec): two checkpoint periods of in-flight entries plus the pipeline.
  uint64_t Window() const {
    return static_cast<uint64_t>(config_.checkpoint_period) * 2 +
           static_cast<uint64_t>(config_.pipeline_max);
  }

  uint64_t view_ = 0;
  bool in_view_change_ = false;
  uint64_t vc_target_ = 0;  // view we are trying to move to

  /// The shared consensus core (consensus/): the slot log, the leader's
  /// proposal pipeline and the checkpoint state. Checkpoint votes travel as
  /// unsigned CheckpointMsgs (the crash model has no signatures).
  InstanceLog log_;
  PrimaryPipeline pipeline_;
  CheckpointTracker ckpt_;

  struct ViewChangeRecord {
    uint64_t stable_seq = 0;
    /// seq -> (view it was accepted in, batch).
    std::map<uint64_t, std::pair<uint64_t, Batch>> entries;
  };
  std::map<uint64_t, std::map<PrincipalId, ViewChangeRecord>> vc_msgs_;

  EventId view_timer_ = 0;
  SimTime current_vc_timeout_ = 0;
  /// Last time we asked a peer for a snapshot (rate limit; a lost response
  /// must not wedge recovery).
  SimTime last_state_request_ = -Seconds(1);
};

}  // namespace seemore

#endif  // SEEMORE_BASELINES_PAXOS_PAXOS_REPLICA_H_
