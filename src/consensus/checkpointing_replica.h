// The checkpoint and state-transfer flow of §5.1 "State Transfer", written
// once for every protocol: cut a checkpoint each period (snapshot, persist,
// buffer), tally CHECKPOINT votes into a certificate, advance the stable
// checkpoint (log reclaim, arena GC), fetch a certified snapshot when this
// replica fell behind, serve and install snapshots, and restore checkpoint
// state from a durable image. Protocols supply only the policy hooks below
// (DESIGN.md §8 tabulates them); nothing here branches on the protocol.

#ifndef SEEMORE_CONSENSUS_CHECKPOINTING_REPLICA_H_
#define SEEMORE_CONSENSUS_CHECKPOINTING_REPLICA_H_

#include <map>
#include <memory>
#include <vector>

#include "consensus/checkpoint.h"
#include "consensus/instance_log.h"
#include "consensus/replica_base.h"
#include "wire/messages.h"

namespace seemore {

class CheckpointingReplica : public ReplicaBase {
 public:
  uint64_t last_executed() const { return exec_.last_executed(); }
  uint64_t stable_checkpoint() const { return ckpt_.stable_seq(); }
  /// Diagnostics for tests: proposed-but-uncommitted slots, live log slots,
  /// and the instance log itself.
  int uncommitted_slots() const { return log_.UncommittedSlots(); }
  size_t log_occupancy() const { return log_.occupied(); }
  const InstanceLog& instance_log() const { return log_; }

  /// Is `cert` valid under this protocol's stability rule: one (seq, digest),
  /// replica signers with valid signatures, and distinct signers that pass
  /// IsCheckpointQuorum? Genesis is always valid. State responses and
  /// view changes check certificates with this.
  bool VerifyCheckpointCert(const CheckpointCert& cert) const;

 protected:
  /// The protocol's CHECKPOINT, STATE-REQUEST and STATE-RESPONSE tags.
  struct CheckpointTags {
    uint8_t checkpoint;
    uint8_t state_request;
    uint8_t state_response;
  };

  CheckpointingReplica(Transport* transport, TimerService* timers,
                       const KeyStore* keystore, CryptoMemo* memo,
                       PrincipalId id, const ClusterConfig& config,
                       std::unique_ptr<StateMachine> state_machine,
                       const CostModel& costs, const CheckpointTags& tags);

  // ----- policy hooks -----
  /// Does this replica multicast the checkpoints it cuts?
  virtual bool EmitsCheckpoint() const = 0;
  /// Do these distinct signers (ascending) make a checkpoint stable?
  virtual bool IsCheckpointQuorum(
      const std::vector<PrincipalId>& signers) const = 0;
  /// Does a peer's authenticated checkpoint prove we lag, so we fetch now?
  virtual bool FetchOnCheckpoint(const CheckpointMsg& msg) const = 0;
  /// Runs after every stable advance (the proposal window moved).
  virtual void OnStableAdvanced() {}
  /// Puts our own checkpoint on the wire; by default signed, under the tag.
  virtual void MulticastCheckpoint(CheckpointMsg& msg);
  /// The certificate a stable checkpoint keeps; by default all its votes.
  virtual CheckpointCert Certify(
      const std::map<PrincipalId, CheckpointMsg>& votes) const;

  // ----- the shared flow -----
  /// Handles a frame carrying one of the three tags (the decoder is past the
  /// tag byte); returns false for any other tag.
  bool DispatchCheckpointTraffic(uint8_t tag, PrincipalId from, Decoder& dec);
  /// After each commit: cut a checkpoint if one is due, and emit it.
  void MaybeCheckpoint();
  /// Count a peer's authenticated vote, then fetch if FetchOnCheckpoint.
  void AcceptCheckpointVote(const CheckpointMsg& msg);
  /// Ask `target` for its snapshot; rate limited to one ask per 20 ms, so a
  /// lost response delays recovery but cannot wedge it.
  void RequestStateFrom(PrincipalId target);
  /// Install a transferred snapshot whose digest matches: restore, persist,
  /// make stable. A mismatch or an undecodable snapshot changes nothing.
  void InstallSnapshot(uint64_t seq, const Digest& digest,
                       CheckpointCert cert, Bytes snapshot);
  /// The checkpoint half of a durable restart (protocols restore the view).
  void OnDurableRestore(const RecoveredImage& image) override;

  bool IsReplicaId(PrincipalId r) const { return r >= 0 && r < config_.n(); }
  /// Is `seq` inside the agreement window above the stable checkpoint?
  bool InWindow(uint64_t seq) const {
    return seq > ckpt_.stable_seq() && seq <= ckpt_.stable_seq() + window_;
  }

  /// Two checkpoint periods plus the pipeline: how far above the stable
  /// checkpoint a replica accepts sequence numbers.
  const uint64_t window_;
  InstanceLog log_;
  CheckpointTracker ckpt_;

 private:
  void HandleCheckpoint(PrincipalId from, CheckpointMsg msg);
  void HandleStateRequest(PrincipalId from, StateRequestMsg msg);
  void HandleStateResponse(PrincipalId from, StateResponseMsg msg);
  void CountCheckpointVote(const CheckpointMsg& msg);
  void AdvanceStable(uint64_t seq, const Digest& digest, CheckpointCert cert,
                     PrincipalId helper);

  const CheckpointTags tags_;
  SimTime last_state_request_ = -Seconds(1);
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_CHECKPOINTING_REPLICA_H_
