#include "consensus/checkpointing_replica.h"

#include <utility>

namespace seemore {

CheckpointingReplica::CheckpointingReplica(
    Transport* transport, TimerService* timers, const KeyStore* keystore,
    CryptoMemo* memo, PrincipalId id, const ClusterConfig& config,
    std::unique_ptr<StateMachine> state_machine, const CostModel& costs,
    const CheckpointTags& tags)
    : ReplicaBase(transport, timers, keystore, memo, id, config,
                  std::move(state_machine), costs),
      window_(static_cast<uint64_t>(config.checkpoint_period) * 2 +
              static_cast<uint64_t>(config.pipeline_max)),
      log_(window_),
      ckpt_(config.checkpoint_period),
      tags_(tags) {}

bool CheckpointingReplica::VerifyCheckpointCert(
    const CheckpointCert& cert) const {
  if (cert.IsGenesis()) return true;
  return cert.Verify(*keystore_,
                     [this](PrincipalId r) { return IsReplicaId(r); }) &&
         IsCheckpointQuorum(cert.Signers());
}

void CheckpointingReplica::MulticastCheckpoint(CheckpointMsg& msg) {
  ChargeSign();
  msg.Sign(signer_);
  SendToMany(config_.AllReplicas(), FrameMessage(tags_.checkpoint, msg));
}

CheckpointCert CheckpointingReplica::Certify(
    const std::map<PrincipalId, CheckpointMsg>& votes) const {
  CheckpointCert cert;
  for (const auto& [signer, vote] : votes) cert.Add(vote);
  return cert;
}

bool CheckpointingReplica::DispatchCheckpointTraffic(uint8_t tag,
                                                     PrincipalId from,
                                                     Decoder& dec) {
  if (tag == tags_.checkpoint) {
    DispatchTyped(this, from, dec, &CheckpointingReplica::HandleCheckpoint);
  } else if (tag == tags_.state_request) {
    DispatchTyped(this, from, dec, &CheckpointingReplica::HandleStateRequest);
  } else if (tag == tags_.state_response) {
    DispatchTyped(this, from, dec, &CheckpointingReplica::HandleStateResponse);
  } else {
    return false;
  }
  return true;
}

void CheckpointingReplica::MaybeCheckpoint() {
  const uint64_t executed = exec_.last_executed();
  if (!ckpt_.Due(executed)) return;
  ckpt_.NoteTaken(executed);
  Bytes snapshot = exec_.Snapshot();
  ChargeHash(snapshot.size());
  const Digest digest = Digest::Of(snapshot);
  durable().SaveSnapshot(executed, digest, snapshot);
  ckpt_.Buffer(executed, digest, std::move(snapshot));

  if (!EmitsCheckpoint()) return;
  CheckpointMsg msg;
  msg.seq = executed;
  msg.state_digest = digest;
  msg.replica = id_;
  MulticastCheckpoint(msg);
  CountCheckpointVote(msg);
}

void CheckpointingReplica::HandleCheckpoint(PrincipalId from,
                                            CheckpointMsg msg) {
  if (msg.replica != from || !IsReplicaId(from)) return;
  if (msg.seq <= ckpt_.stable_seq()) return;
  ChargeVerify();
  if (!FrameVerifyMemoized(msg.replica, tags_.checkpoint,
                           [&] { return msg.Verify(*keystore_); })) {
    return;
  }
  AcceptCheckpointVote(msg);
}

void CheckpointingReplica::AcceptCheckpointVote(const CheckpointMsg& msg) {
  CountCheckpointVote(msg);
  if (FetchOnCheckpoint(msg)) RequestStateFrom(msg.replica);
}

void CheckpointingReplica::CountCheckpointVote(const CheckpointMsg& msg) {
  const std::map<PrincipalId, CheckpointMsg>& votes = ckpt_.AddVote(msg);
  std::vector<PrincipalId> signers;
  PrincipalId helper = id_;  // fetch, if need be, from the highest co-signer
  for (const auto& [signer, vote] : votes) {
    signers.push_back(signer);
    if (signer != id_) helper = signer;
  }
  if (!IsCheckpointQuorum(signers)) return;
  AdvanceStable(msg.seq, msg.state_digest, Certify(votes), helper);
}

void CheckpointingReplica::AdvanceStable(uint64_t seq, const Digest& digest,
                                         CheckpointCert cert,
                                         PrincipalId helper) {
  if (seq <= ckpt_.stable_seq()) return;
  durable().NoteStable(seq, cert);
  const bool installed = ckpt_.Advance(seq, digest, std::move(cert));
  // Stable without the matching snapshot: this replica is behind.
  if (!installed && exec_.last_executed() < seq && helper != id_) {
    RequestStateFrom(helper);
  }
  log_.Reclaim(seq);
  NoteCheckpointGc();  // scratch arena rewinds at the next message boundary
  OnStableAdvanced();
}

void CheckpointingReplica::RequestStateFrom(PrincipalId target) {
  if (target == id_) return;
  if (now() - last_state_request_ < Millis(20)) return;
  last_state_request_ = now();
  StateRequestMsg request{exec_.last_executed()};
  SendTo(target, request.ToMessage(tags_.state_request));
}

void CheckpointingReplica::HandleStateRequest(PrincipalId from,
                                              StateRequestMsg msg) {
  if (!ckpt_.has_stable_snapshot() ||
      ckpt_.stable_seq() <= msg.last_executed) {
    return;
  }
  StateResponseMsg response;
  response.cert = ckpt_.stable_cert();
  response.snapshot = ckpt_.stable_snapshot();
  SendTo(from, response.ToMessage(tags_.state_response));
}

void CheckpointingReplica::HandleStateResponse(PrincipalId /*from*/,
                                               StateResponseMsg msg) {
  const uint64_t seq = msg.cert.seq();
  if (msg.cert.IsGenesis() || seq <= exec_.last_executed()) return;
  ChargeVerify(static_cast<int>(msg.cert.msgs().size()));
  if (!VerifyCheckpointCert(msg.cert)) return;
  const Digest digest = msg.cert.state_digest();
  InstallSnapshot(seq, digest, std::move(msg.cert), std::move(msg.snapshot));
}

void CheckpointingReplica::InstallSnapshot(uint64_t seq, const Digest& digest,
                                           CheckpointCert cert,
                                           Bytes snapshot) {
  ChargeHash(snapshot.size());
  if (Digest::Of(snapshot) != digest) return;
  if (!exec_.Restore(snapshot, seq).ok()) return;
  ++stats_.state_transfers;
  // Persist it too: a restart must not come back below a state this replica
  // already executed past.
  durable().SaveSnapshot(seq, digest, snapshot);
  durable().NoteStable(seq, cert);
  ckpt_.InstallRestored(seq, digest, std::move(cert), std::move(snapshot));
  log_.Reclaim(seq);
  NoteCheckpointGc();  // scratch arena rewinds at the next message boundary
}

void CheckpointingReplica::OnDurableRestore(const RecoveredImage& image) {
  // The newest CERTIFIED checkpoint restores as stable; newer certless
  // snapshots re-enter the tracker as buffered, exactly as on the cutting
  // path, so the stability vote flow resumes where it stopped.
  if (const storage::RecoveredSnapshot* stable = image.LatestStable()) {
    ckpt_.InstallRestored(stable->seq, stable->digest, stable->cert,
                          stable->bytes);
    log_.Reclaim(stable->seq);
  }
  for (const auto& snap : image.snapshots) {
    if (snap.seq > ckpt_.stable_seq()) {
      ckpt_.Buffer(snap.seq, snap.digest, snap.bytes);
    }
  }
  if (const storage::RecoveredSnapshot* latest = image.Latest()) {
    if (latest->seq > ckpt_.last_checkpoint_seq()) {
      ckpt_.NoteTaken(latest->seq);
    }
  }
}

}  // namespace seemore
