// PBFT baseline (Castro & Liskov, OSDI'99), the paper's "BFT" comparator:
// 3 communication phases (pre-prepare, prepare, commit), O(n²) messages,
// network 3f+1, quorum 2f+1, full view change with prepared certificates,
// quorum checkpoints and state transfer.
//
// The implementation is written as a quorum-parameterized core
// (PbftCoreReplica) because the paper's S-UpRight comparator is "a PBFT-like
// protocol with fewer nodes": identical message flow over N = 3m+2c+1
// replicas with quorums of 2m+c+1 (see supright_replica.h).

#ifndef SEEMORE_BASELINES_PBFT_PBFT_REPLICA_H_
#define SEEMORE_BASELINES_PBFT_PBFT_REPLICA_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/checkpointing_replica.h"
#include "consensus/primary_pipeline.h"
#include "consensus/proofs.h"
#include "wire/messages.h"

namespace seemore {

/// Quorum thresholds that differentiate PBFT from S-UpRight.
struct PbftQuorums {
  int agreement;   // matching PREPAREs to become prepared (PBFT: 2f)
  int commit;      // matching COMMITs to commit           (PBFT: 2f+1)
  int view_change; // VIEW-CHANGE messages for a new view  (PBFT: 2f+1)
  int checkpoint;  // matching CHECKPOINTs for stability   (PBFT: 2f+1)
  int vc_join;     // VCs for higher views that force us to join (PBFT: f+1)
};

class PbftCoreReplica : public CheckpointingReplica {
 public:
  PbftCoreReplica(Transport* transport, TimerService* timers,
                  const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
                  const ClusterConfig& config,
                  std::unique_ptr<StateMachine> state_machine,
                  const CostModel& costs, const PbftQuorums& quorums);

  uint64_t view() const { return view_; }
  bool IsPrimary() const { return config_.FlatPrimary(view_) == id_; }
  bool in_view_change() const { return in_view_change_; }

 protected:
  void HandleMessage(PrincipalId from, const Payload& frame) override;
  void OnDurableRestore(const RecoveredImage& image) override;

  // ----- checkpoint policy (consensus/checkpointing_replica.h) -----
  /// Every replica signs and multicasts its checkpoints.
  bool EmitsCheckpoint() const override { return true; }
  /// `quorums_.checkpoint` matching signers (PBFT 2f+1, S-UpRight 2m+c+1).
  bool IsCheckpointQuorum(
      const std::vector<PrincipalId>& signers) const override {
    return static_cast<int>(signers.size()) >= quorums_.checkpoint;
  }
  /// The vote path (quorum, then a stable advance) normally handles a
  /// laggard, but when its own vote can never arrive (it is stuck) it
  /// fetches once a peer is more than a period ahead.
  bool FetchOnCheckpoint(const CheckpointMsg& msg) const override {
    return msg.seq > exec_.last_executed() +
                         static_cast<uint64_t>(config_.checkpoint_period);
  }
  void OnStableAdvanced() override {
    if (IsPrimary() && !in_view_change_) TryPropose();  // window moved
  }

 private:
  struct ViewChangeRecord {
    Bytes raw;  // full message, embedded into NEW-VIEW as proof
    uint64_t stable_seq = 0;
    CheckpointCert cert;
    std::map<uint64_t, PreparedProof> proofs;
  };

  /// Chosen value for one re-proposed sequence number.
  struct Proposal {
    Digest digest;
    Batch batch;
  };

  // ----- normal case -----
  void HandleRequest(PrincipalId from, Request request);
  void PrimaryEnqueue(Request request);
  void TryPropose();
  void EmitPrePrepare(uint64_t seq, const Batch& batch, const Bytes& encoded);
  void HandlePrePrepare(PrincipalId from, PbftPrePrepareMsg msg);
  void HandlePrepare(PrincipalId from, PbftPrepareMsg msg);
  void HandleCommit(PrincipalId from, PbftCommitMsg msg);
  void SendPrepare(uint64_t seq, SlotCore& slot);
  void CheckPrepared(uint64_t seq, SlotCore& slot);
  void CheckCommitted(uint64_t seq, SlotCore& slot);
  void SendReply(const ExecutedRequest& executed);

  // ----- view change -----
  void ArmViewTimer();
  void RestartOrDisarmViewTimer();
  void StartViewChange(uint64_t new_view);
  /// Structural decode (wire/messages.h) + semantic validation of a raw
  /// VIEW-CHANGE frame: body signature, checkpoint cert, prepared proofs.
  Result<ViewChangeRecord> ParseViewChange(const Bytes& raw, PrincipalId from);
  /// Semantic half of ParseViewChange for an already-decoded frame (avoids
  /// double decoding when NEW-VIEW processing has the typed message).
  Result<ViewChangeRecord> ValidateViewChange(PbftViewChangeMsg msg,
                                              const Bytes& raw,
                                              PrincipalId from);
  void HandleViewChange(PrincipalId from, const Bytes& raw);
  void MaybeJoinViewChange();
  void MaybeFormNewView(uint64_t new_view);
  /// Deterministic re-proposal computation shared by the new primary and by
  /// backups validating a NEW-VIEW: (max stable, proposals per seq).
  std::pair<uint64_t, std::map<uint64_t, Proposal>> ComputeNewViewProposals(
      const std::map<PrincipalId, ViewChangeRecord>& records) const;
  void HandleNewView(PrincipalId from, PbftNewViewMsg msg);
  void EnterView(uint64_t view);

  const PbftQuorums quorums_;
  uint64_t view_ = 0;
  bool in_view_change_ = false;
  uint64_t vc_target_ = 0;

  /// The primary's proposal pipeline (consensus/primary_pipeline.h).
  PrimaryPipeline pipeline_;

  std::map<uint64_t, std::map<PrincipalId, ViewChangeRecord>> vc_msgs_;

  EventId view_timer_ = 0;
  SimTime current_vc_timeout_ = 0;
};

/// PBFT proper: N = 3f+1, quorums per Castro & Liskov.
class PbftReplica : public PbftCoreReplica {
 public:
  PbftReplica(Transport* transport, TimerService* timers,
              const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
              const ClusterConfig& config,
              std::unique_ptr<StateMachine> state_machine,
              const CostModel& costs)
      : PbftCoreReplica(transport, timers, keystore, memo, id, config,
                        std::move(state_machine), costs,
                        PbftQuorums{/*agreement=*/2 * config.f,
                                    /*commit=*/2 * config.f + 1,
                                    /*view_change=*/2 * config.f + 1,
                                    /*checkpoint=*/2 * config.f + 1,
                                    /*vc_join=*/config.f + 1}) {}
};

}  // namespace seemore

#endif  // SEEMORE_BASELINES_PBFT_PBFT_REPLICA_H_
