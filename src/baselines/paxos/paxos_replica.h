// Crash fault-tolerant baseline ("CFT" in the paper's §6): a Multi-Paxos /
// Viewstamped-Replication style protocol matching Table 1's Paxos row —
// 2 communication phases, O(n) messages, network 2f+1, quorum f+1.
//
// Normal case:   client -> leader; leader ACCEPT(v,n,batch) -> all;
//                replicas ACK -> leader; on f+1 (incl. self) leader sends
//                COMMIT -> all, executes and replies to the client.
// View change:   backup timers; VIEW-CHANGE(v+1, stable seq, accepted
//                entries by digest) broadcast; new leader collects f+1 =>
//                NEW-VIEW carrying re-proposals by digest, which backups
//                ACK like fresh ACCEPTs once they hold the batch.
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

#include "consensus/view_changing_replica.h"
#include "wire/messages.h"

namespace seemore {

/// A VIEW-CHANGE as received: crash-model peers do not lie, so it is taken
/// as claimed.
struct PaxosViewChangeRecord {
  uint64_t stable_seq = 0;
  /// seq -> (view it was accepted in, digest of its batch).
  std::map<uint64_t, std::pair<uint64_t, Digest>> entries;

  bool Names(uint64_t seq, const Digest& digest) const {
    auto it = entries.find(seq);
    return it != entries.end() && it->second.second == digest;
  }
};

class PaxosReplica : public ViewChangingReplica<PaxosViewChangeRecord> {
 public:
  PaxosReplica(Transport* transport, TimerService* timers,
               const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
               const ClusterConfig& config,
               std::unique_ptr<StateMachine> state_machine,
               const CostModel& costs);

 protected:
  // ----- request path (consensus/view_changing_replica.h) -----
  /// Also dispatches the crash-model checkpoint wire types.
  void HandleProtocolMessage(uint8_t tag, PrincipalId from,
                             Decoder& dec) override;
  void TryPropose() override;

  // ----- checkpoint policy (consensus/checkpointing_replica.h) -----
  /// Every replica announces its checkpoints.
  bool EmitsCheckpoint() const override { return true; }
  /// f+1 matching announcements (a crash-model majority).
  bool IsCheckpointQuorum(
      const std::vector<PrincipalId>& signers) const override {
    return static_cast<int>(signers.size()) >= config_.f + 1;
  }
  /// Crash model: a single announcer is honest. If it is ahead of us we
  /// fell behind (lost commits have no protocol-level retransmission).
  bool FetchOnCheckpoint(const CheckpointMsg& msg) const override {
    return msg.seq > exec_.last_executed();
  }
  /// Announcements travel as the unsigned PaxosCheckpointMsg...
  void MulticastCheckpoint(CheckpointMsg& msg) override;
  /// ...so a stable checkpoint has no transferable certificate.
  CheckpointCert Certify(
      const std::map<PrincipalId, CheckpointMsg>& /*votes*/) const override {
    return CheckpointCert::Genesis();
  }

  // ----- view-change policy (consensus/view_changing_replica.h) -----
  /// Every accepted entry, with the stable seq as claimed.
  void SendViewChange(uint64_t new_view) override;
  /// Crash model: a peer's suspicion is honest, so join the view it names.
  bool JoinsViewChange(const Records& /*records*/, bool named) const override {
    return named;
  }
  bool IsNewViewAuthority(uint64_t view) const override {
    return config_.FlatPrimary(view) == id_;
  }
  /// f+1 records (a crash-model majority).
  bool IsNewViewQuorum(const Records& records) const override {
    return static_cast<int>(records.size()) >= config_.f + 1;
  }
  void FormNewView(uint64_t new_view, const Records& records) override;
  /// Commit, if the leader's COMMIT came while the batch was missing.
  void ResumeReproposal(uint64_t seq, SlotCore& slot) override;

 private:
  // ----- normal case -----
  void HandleAccept(PrincipalId from, PaxosAcceptMsg msg);
  void HandleAck(PrincipalId from, PaxosAckMsg msg);
  void HandleCommit(PrincipalId from, PaxosCommitMsg msg);
  void CommitSlot(uint64_t seq, SlotCore& slot, bool send_replies);

  // ----- the crash-model checkpoint wire types -----
  void HandleCheckpoint(PrincipalId from, PaxosCheckpointMsg msg);
  void HandleStateRequest(PrincipalId from, StateRequestMsg msg);
  void HandleStateResponse(PrincipalId from, PaxosStateResponseMsg msg);

  // ----- view change -----
  void HandleViewChange(PrincipalId from, PaxosViewChangeMsg msg);
  void HandleNewView(PrincipalId from, PaxosNewViewMsg msg);
};

}  // namespace seemore

#endif  // SEEMORE_BASELINES_PAXOS_PAXOS_REPLICA_H_
