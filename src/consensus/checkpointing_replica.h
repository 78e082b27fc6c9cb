// The checkpoint and state-transfer flow of §5.1 "State Transfer", written
// once for every protocol: cut a checkpoint each period (snapshot, persist,
// buffer), tally CHECKPOINT votes into a certificate, advance the stable
// checkpoint (log reclaim, arena GC), fetch a certified snapshot when this
// replica fell behind, serve and install snapshots, and restore checkpoint
// state from a durable image. Beside the state request sits the batch
// fetch: view changes name batches by digest only, and a replica that lacks
// one asks a replica that vouched for the digest; answers to such unsigned
// asks are rate-limited per peer (MayAnswer). Protocols supply only the
// policy hooks below (DESIGN.md §8 tabulates them); nothing here branches
// on the protocol.

#ifndef SEEMORE_CONSENSUS_CHECKPOINTING_REPLICA_H_
#define SEEMORE_CONSENSUS_CHECKPOINTING_REPLICA_H_

#include <map>
#include <memory>
#include <utility>
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
  /// The protocol's tags for the traffic this core handles.
  struct CoreTags {
    uint8_t checkpoint;
    uint8_t state_request;
    uint8_t state_response;
    uint8_t batch_request;
    uint8_t batch_response;
  };

  /// At most one state request, and one batch-fetch round (one request per
  /// voucher), per this interval, so a lost response delays recovery but
  /// cannot wedge it.
  static constexpr SimTime kFetchInterval = Millis(20);
  /// Batches one BATCH-REQUEST asks for; a response carries at most these,
  /// and fewer when they would pass BatchResponseMsg::kMaxBytes.
  static constexpr size_t kMaxBatchesPerFetch = 128;

  CheckpointingReplica(Transport* transport, TimerService* timers,
                       const KeyStore* keystore, CryptoMemo* memo,
                       PrincipalId id, const ClusterConfig& config,
                       std::unique_ptr<StateMachine> state_machine,
                       const CostModel& costs, const CoreTags& tags);

  // ----- policy hooks -----
  /// Does this replica multicast the checkpoints it cuts?
  virtual bool EmitsCheckpoint() const = 0;
  /// Do these distinct signers (ascending) make a checkpoint stable?
  virtual bool IsCheckpointQuorum(
      const std::vector<PrincipalId>& signers) const = 0;
  /// Does a peer's authenticated checkpoint prove we lag, so we fetch now?
  virtual bool FetchOnCheckpoint(const CheckpointMsg& msg) const = 0;
  /// Runs after every stable advance (the proposal window moved).
  virtual void OnStableAdvanced() = 0;
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
  /// Ask `target` for its snapshot; at most once per kFetchInterval.
  void RequestStateFrom(PrincipalId target);
  /// Install a transferred snapshot whose digest matches: restore, persist,
  /// make stable. A mismatch or an undecodable snapshot changes nothing.
  void InstallSnapshot(uint64_t seq, const Digest& digest,
                       CheckpointCert cert, Bytes snapshot);
  /// The checkpoint half of a durable restart (protocols restore the view).
  void OnDurableRestore(const RecoveredImage& image) override;

  // ----- batch fetch -----
  /// A fetched batch that hashed to the digest asked for at `seq`.
  struct FetchedBatch {
    uint64_t seq;
    Digest digest;
    Batch batch;
  };
  /// Handles a BATCH-REQUEST or BATCH-RESPONSE (the decoder is past the tag
  /// byte): answers a request, and appends to `fetched` every batch a
  /// response delivers (its fetch is over; the caller places it). Returns
  /// false for any other tag.
  bool HandleBatchFetch(uint8_t tag, PrincipalId from, Decoder& dec,
                        std::vector<FetchedBatch>* fetched);
  /// The batch this replica holds for `digest` at `seq`: its log slot's, a
  /// spare, or the no-op (held by everyone). Null when it holds none.
  const Batch* LocalBatch(uint64_t seq, const Digest& digest);
  /// Keeps `batch` outside the log until a re-proposal of `digest` at `seq`
  /// takes it or a stable checkpoint passes `seq`. Spares of different
  /// digests at one seq live side by side.
  void KeepSpareBatch(uint64_t seq, const Digest& digest, Batch batch);
  /// Moves the spare (or the no-op) for `digest` at `seq` into `out`;
  /// false when there is none.
  bool TakeSpareBatch(uint64_t seq, const Digest& digest, Batch* out);
  /// Fetch the batch `digest` names at `seq` from `vouchers` in turn. One
  /// round runs per kFetchInterval while any batch is missing: each missing
  /// batch is asked of its next voucher, in one request per voucher. A
  /// fetch ends when the batch arrives, is held some other way, or a stable
  /// checkpoint passes `seq`. Without vouchers there is no one to ask.
  void FetchBatch(uint64_t seq, const Digest& digest,
                  std::vector<PrincipalId> vouchers);
  /// Drops every fetch under way.
  void CancelBatchFetches() { wanted_batches_.clear(); }
  /// Crash() killed the fetch timer: resume the rounds an interval on.
  void OnRecover() override;

  /// The per-peer answer limit on unsigned requests whose answers can be
  /// large (a BATCH-REQUEST, SeeMoRe's NEW-VIEW-REQUEST): may `peer` be
  /// answered now, given when `answered` says each peer last was? A
  /// Byzantine spammer gets at most one answer per kFetchInterval; an
  /// honest asker self-limits to that rate anyway.
  bool MayAnswer(const std::map<PrincipalId, SimTime>& answered,
                 PrincipalId peer) const {
    auto last = answered.find(peer);
    return last == answered.end() || now() - last->second >= kFetchInterval;
  }

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
  /// Log reclaim up to `seq`, and the fetch state it makes moot.
  void Reclaim(uint64_t seq);

  void HandleBatchRequest(PrincipalId from, BatchRequestMsg msg);
  void HandleBatchResponse(BatchResponseMsg msg,
                           std::vector<FetchedBatch>* fetched);
  /// One fetch round (FetchBatch); the next is due kFetchInterval on while
  /// any batch is still missing.
  void RequestMissingBatches();
  void StartFetchRounds(SimTime delay);

  const CoreTags tags_;
  SimTime last_state_request_ = -Seconds(1);

  struct WantedBatch {
    Digest digest;
    std::vector<PrincipalId> vouchers;
    size_t next = 0;  // the voucher the next ask goes to
  };
  std::map<uint64_t, WantedBatch> wanted_batches_;
  std::map<std::pair<uint64_t, Digest>, Batch> spare_batches_;
  EventId batch_fetch_timer_ = 0;  // the next round; 0 when none is due
  /// When each peer's BATCH-REQUEST was last answered (MayAnswer).
  std::map<PrincipalId, SimTime> last_batch_reply_;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_CHECKPOINTING_REPLICA_H_
