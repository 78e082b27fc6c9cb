#include "consensus/checkpointing_replica.h"

#include <algorithm>
#include <utility>

namespace seemore {

CheckpointingReplica::CheckpointingReplica(
    Transport* transport, TimerService* timers, const KeyStore* keystore,
    CryptoMemo* memo, PrincipalId id, const ClusterConfig& config,
    std::unique_ptr<StateMachine> state_machine, const CostModel& costs,
    const CoreTags& tags)
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
  SendToMany(all_replicas_, FrameMessage(tags_.checkpoint, msg));
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
  Reclaim(seq);
  OnStableAdvanced();
}

void CheckpointingReplica::Reclaim(uint64_t seq) {
  log_.Reclaim(seq);
  wanted_batches_.erase(wanted_batches_.begin(),
                        wanted_batches_.upper_bound(seq));
  while (!spare_batches_.empty() &&
         spare_batches_.begin()->first.first <= seq) {
    spare_batches_.erase(spare_batches_.begin());
  }
}

void CheckpointingReplica::RequestStateFrom(PrincipalId target) {
  if (target == id_) return;
  if (now() - last_state_request_ < kFetchInterval) return;
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
  Reclaim(seq);
}

bool CheckpointingReplica::HandleBatchFetch(
    uint8_t tag, PrincipalId from, Decoder& dec,
    std::vector<FetchedBatch>* fetched) {
  const uint64_t max_entries = window_ + 1;
  if (tag == tags_.batch_request) {
    Result<BatchRequestMsg> msg = BatchRequestMsg::DecodeFrom(dec, max_entries);
    if (msg.ok()) HandleBatchRequest(from, std::move(msg).value());
  } else if (tag == tags_.batch_response) {
    Result<BatchResponseMsg> msg =
        BatchResponseMsg::DecodeFrom(dec, max_entries);
    if (msg.ok()) HandleBatchResponse(std::move(msg).value(), fetched);
  } else {
    return false;
  }
  return true;
}

const Batch* CheckpointingReplica::LocalBatch(uint64_t seq,
                                              const Digest& digest) {
  static const Batch kNoop = Batch::Noop();
  if (digest == Batch::NoopDigest()) return &kNoop;
  const SlotCore* slot = log_.Find(seq);
  if (slot != nullptr && slot->has_batch() && slot->digest == digest) {
    return &slot->batch;
  }
  auto spare = spare_batches_.find({seq, digest});
  return spare == spare_batches_.end() ? nullptr : &spare->second;
}

void CheckpointingReplica::KeepSpareBatch(uint64_t seq, const Digest& digest,
                                          Batch batch) {
  if (seq <= ckpt_.stable_seq()) return;
  spare_batches_.try_emplace({seq, digest}, std::move(batch));
}

bool CheckpointingReplica::TakeSpareBatch(uint64_t seq, const Digest& digest,
                                          Batch* out) {
  if (digest == Batch::NoopDigest()) {
    *out = Batch::Noop();
    return true;
  }
  auto spare = spare_batches_.find({seq, digest});
  if (spare == spare_batches_.end()) return false;
  *out = std::move(spare->second);
  spare_batches_.erase(spare);
  return true;
}

void CheckpointingReplica::FetchBatch(uint64_t seq, const Digest& digest,
                                      std::vector<PrincipalId> vouchers) {
  if (vouchers.empty()) return;
  auto [it, fresh] = wanted_batches_.try_emplace(seq);
  WantedBatch& want = it->second;
  if (fresh || want.digest != digest) {
    want = WantedBatch{digest, std::move(vouchers)};
  } else {
    want.vouchers = std::move(vouchers);  // keeps its turn
  }
  // With no round due, one runs at the end of this dispatch, so one request
  // per voucher covers every batch the handler found missing.
  if (batch_fetch_timer_ == 0) StartFetchRounds(0);
}

void CheckpointingReplica::StartFetchRounds(SimTime delay) {
  batch_fetch_timer_ = StartTimer(delay, [this] {
    batch_fetch_timer_ = 0;
    RequestMissingBatches();
  });
}

void CheckpointingReplica::OnRecover() {
  batch_fetch_timer_ = 0;
  if (!wanted_batches_.empty()) StartFetchRounds(kFetchInterval);
}

void CheckpointingReplica::RequestMissingBatches() {
  std::map<PrincipalId, BatchRequestMsg> requests;
  for (auto it = wanted_batches_.begin(); it != wanted_batches_.end();) {
    WantedBatch& want = it->second;
    if (LocalBatch(it->first, want.digest) != nullptr) {
      it = wanted_batches_.erase(it);
      continue;
    }
    // A full request leaves the batch to the next round, same voucher.
    BatchRequestMsg& request =
        requests[want.vouchers[want.next % want.vouchers.size()]];
    if (request.wanted.size() < kMaxBatchesPerFetch) {
      request.wanted.push_back(BatchRef{it->first, want.digest});
      ++want.next;
    }
    ++it;
  }
  for (const auto& [target, request] : requests) {
    ++stats_.batch_fetches;
    SendTo(target, request.ToMessage(tags_.batch_request));
  }
  // The next round waits for our own backlog too: a response cannot be
  // handled before it drains.
  if (!wanted_batches_.empty()) {
    StartFetchRounds(kFetchInterval + CpuBacklog());
  }
}

void CheckpointingReplica::HandleBatchRequest(PrincipalId from,
                                              BatchRequestMsg msg) {
  if (!MayAnswer(last_batch_reply_, from)) return;
  BatchResponseMsg response;
  for (const BatchRef& ref : msg.wanted) {
    if (response.batches.size() >= kMaxBatchesPerFetch) break;
    const Batch* batch = LocalBatch(ref.seq, ref.digest);
    // The requester asks again for what does not fit.
    if (batch != nullptr && !response.Add(ref.seq, batch->Encode())) break;
  }
  if (response.batches.empty()) return;
  last_batch_reply_[from] = now();
  SendTo(from, response.ToMessage(tags_.batch_response));
}

void CheckpointingReplica::HandleBatchResponse(
    BatchResponseMsg msg, std::vector<FetchedBatch>* fetched) {
  for (BatchResponseMsg::Entry& entry : msg.batches) {
    auto want = wanted_batches_.find(entry.seq);
    if (want == wanted_batches_.end()) continue;  // not (or no longer) needed
    ChargeHash(entry.batch.size());
    if (Digest::Of(entry.batch) != want->second.digest) {
      ++stats_.batch_fetch_rejects;
      continue;
    }
    Result<Batch> batch = Batch::Decode(entry.batch);
    if (!batch.ok()) {
      ++stats_.batch_fetch_rejects;
      continue;
    }
    fetched->push_back(
        FetchedBatch{entry.seq, want->second.digest, std::move(batch).value()});
    wanted_batches_.erase(want);
    ++stats_.batches_fetched;
  }
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
