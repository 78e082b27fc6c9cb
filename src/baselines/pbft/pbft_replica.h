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

#include "consensus/proofs.h"
#include "consensus/view_changing_replica.h"
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

/// A validated VIEW-CHANGE.
struct PbftViewChangeRecord {
  Bytes raw;  // full message, embedded into NEW-VIEW as proof
  uint64_t stable_seq = 0;  // its certificate's seq
  std::map<uint64_t, PreparedProof> proofs;
  /// Signed entries it names: each proof and its prepare signatures.
  uint64_t entries = 0;

  bool Names(uint64_t seq, const Digest& digest) const {
    auto it = proofs.find(seq);
    return it != proofs.end() && it->second.digest == digest;
  }
};

class PbftCoreReplica : public ViewChangingReplica<PbftViewChangeRecord> {
 public:
  PbftCoreReplica(Transport* transport, TimerService* timers,
                  const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
                  const ClusterConfig& config,
                  std::unique_ptr<StateMachine> state_machine,
                  const CostModel& costs, const PbftQuorums& quorums);

 protected:
  // ----- request path (consensus/view_changing_replica.h) -----
  void HandleProtocolMessage(uint8_t tag, PrincipalId from,
                             Decoder& dec) override;
  /// Every replica authenticates a request before it orders or relays it.
  bool ChecksClientSignature() const override { return true; }
  void TryPropose() override;

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

  // ----- view-change policy (consensus/view_changing_replica.h) -----
  /// Prepared proofs above the stable checkpoint, under its certificate.
  void SendViewChange(uint64_t new_view) override;
  /// `quorums_.vc_join` distinct senders (PBFT f+1): a lone Byzantine node
  /// cannot force a view change, and we follow the honest majority.
  bool JoinsViewChange(const Records& records, bool /*named*/) const override {
    return static_cast<int>(records.size()) >= quorums_.vc_join;
  }
  bool IsNewViewAuthority(uint64_t view) const override {
    return config_.FlatPrimary(view) == id_;
  }
  /// `quorums_.view_change` records (PBFT 2f+1, S-UpRight 2m+c+1).
  bool IsNewViewQuorum(const Records& records) const override {
    return static_cast<int>(records.size()) >= quorums_.view_change;
  }
  void FormNewView(uint64_t new_view, const Records& records) override;
  /// Commit, if the votes that came while the batch was missing suffice.
  void ResumeReproposal(uint64_t seq, SlotCore& slot) override;

 private:
  // ----- normal case -----
  void EmitPrePrepare(uint64_t seq, const Batch& batch, const Bytes& encoded);
  void HandlePrePrepare(PrincipalId from, PbftPrePrepareMsg msg);
  void HandlePrepare(PrincipalId from, PbftPrepareMsg msg);
  void HandleCommit(PrincipalId from, PbftCommitMsg msg);
  void SendPrepare(uint64_t seq, SlotCore& slot);
  void CheckPrepared(uint64_t seq, SlotCore& slot);
  void CheckCommitted(uint64_t seq, SlotCore& slot);

  // ----- view change -----
  /// Structural decode (wire/messages.h) + semantic validation of a raw
  /// VIEW-CHANGE frame: body signature, checkpoint cert, prepared proofs.
  Result<ViewChangeRecord> ParseViewChange(const Bytes& raw, PrincipalId from);
  /// Semantic half of ParseViewChange for an already-decoded frame (avoids
  /// double decoding when NEW-VIEW processing has the typed message).
  Result<ViewChangeRecord> ValidateViewChange(PbftViewChangeMsg msg,
                                              const Bytes& raw,
                                              PrincipalId from);
  void HandleViewChange(PrincipalId from, const Bytes& raw);
  /// Deterministic re-proposal computation shared by the new primary and by
  /// backups validating a NEW-VIEW: (floor, proposals per seq).
  std::pair<uint64_t, Reproposals> ComputeNewViewProposals(
      const Records& records) const;
  void HandleNewView(PrincipalId from, PbftNewViewMsg msg);

  const PbftQuorums quorums_;
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
