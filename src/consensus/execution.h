// In-order execution of committed batches on top of a StateMachine, with
// exactly-once reply caching and snapshot/restore for checkpointing.
//
// Shared by all four protocols: a protocol marks (seq, batch) committed and
// the engine executes batches strictly in sequence order, buffering gaps.
// The next-in-order batch executes in place from the caller's slot; only a
// batch that must wait for a gap is copied.
//
// Memory model (DESIGN.md §10): the reply cache is an open-addressing flat
// map (hot on every request/execute), bounded by opt-in retention-window
// eviction (ClusterConfig::reply_cache_retention);
// the executed-digest audit trail is a dense vector (seqs execute in order,
// so a base offset + vector replaces a std::map with zero per-entry nodes).
// Everything serialized into Snapshot() is emitted in sorted client order at
// write time, so snapshot bytes — and therefore checkpoint state digests —
// never depend on hash-table iteration order.

#ifndef SEEMORE_CONSENSUS_EXECUTION_H_
#define SEEMORE_CONSENSUS_EXECUTION_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/batch.h"
#include "smr/state_machine.h"
#include "util/flat_hash_map.h"

namespace seemore {

/// One request's execution outcome, used by protocols to send replies. It
/// names the request by (client, timestamp), all a reply needs; the op
/// stays in the committed batch.
struct ExecutedRequest {
  uint64_t seq = 0;
  PrincipalId client = 0;
  uint64_t timestamp = 0;
  Bytes result;
  /// True if the request had already executed under an earlier sequence
  /// number (duplicate from a retransmission); `result` is the cached reply.
  bool duplicate = false;
};

/// Dense audit trail of batch digests by sequence number: seqs execute
/// strictly in order, so storage is a base offset plus a vector (the old
/// std::map cost one tree node per committed batch for data that is never
/// queried out of order). Entries below a restored snapshot are absent.
class ExecutedDigestLog {
 public:
  /// First / last sequence number present (floor() > ceil() when empty).
  uint64_t floor() const { return base_; }
  uint64_t ceil() const { return base_ + digests_.size() - 1; }
  size_t size() const { return digests_.size(); }
  bool empty() const { return digests_.empty(); }

  const Digest* Find(uint64_t seq) const {
    if (seq < base_ || seq - base_ >= digests_.size()) return nullptr;
    return &digests_[seq - base_];
  }
  const Digest& at(uint64_t seq) const { return *Find(seq); }

  /// Append the digest for `seq`; must be exactly one past the last entry.
  void Append(uint64_t seq, const Digest& digest) {
    if (digests_.empty()) base_ = seq;
    digests_.push_back(digest);
  }

  /// Restore-time reset: everything at or below `snapshot_seq` is covered by
  /// the snapshot, so the trail restarts above it.
  void ResetAbove(uint64_t snapshot_seq) {
    digests_.clear();
    base_ = snapshot_seq + 1;
  }

 private:
  uint64_t base_ = 1;
  std::vector<Digest> digests_;
};

class ExecutionEngine {
 public:
  explicit ExecutionEngine(std::unique_ptr<StateMachine> state_machine);

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Record (seq, batch) as committed; `digest` must be
  /// batch.ComputeDigest(), which every protocol already holds as the
  /// digest the batch was agreed under (the WAL replay computes it). When
  /// `seq` is next in order the batch executes in place; otherwise a copy
  /// waits, with its digest, for the gap below it. Executes every batch that
  /// becomes in-order executable and returns the per-request outcomes
  /// (possibly from several sequence numbers). Re-commits of an
  /// already-executed or already-buffered seq are ignored (returns empty).
  std::vector<ExecutedRequest> Commit(uint64_t seq, const Batch& batch,
                                      const Digest& digest);

  uint64_t last_executed() const { return last_executed_; }

  /// True if a batch for `seq` is already executed or buffered.
  bool HasCommitted(uint64_t seq) const {
    return seq <= last_executed_ || pending_.count(seq) > 0;
  }

  /// Cached reply for a client's timestamp, if it is the client's most
  /// recent executed request (exactly-once retransmission support).
  std::optional<Bytes> CachedReply(PrincipalId client, uint64_t timestamp) const;

  /// True if `timestamp` from `client` has already been executed (i.e. is
  /// <= the client's latest executed timestamp).
  bool SeenTimestamp(PrincipalId client, uint64_t timestamp) const;

  /// --- reply-cache bounding ---------------------------------------------
  /// Retain a client's cached reply only while its last executed request is
  /// within `seqs` of the execution frontier; older entries are evicted as
  /// execution advances (a client idle for a full retention window can no
  /// longer be deduplicated — the PBFT last-reply-cache tradeoff). Eviction
  /// happens inside Commit(), so it is a pure function of the committed
  /// prefix: every correct replica evicts identically and snapshot bytes
  /// stay convergent. When enabled, snapshots additionally serialize each
  /// entry's last-execution seq so restored replicas inherit the donor's
  /// eviction schedule exactly; with retention off the snapshot layout is
  /// byte-identical to the historical format. The knob is therefore
  /// cluster-wide consensus state — set it identically on every replica
  /// (ClusterConfig::reply_cache_retention) and never mid-run. 0 (the
  /// default) disables eviction.
  void SetReplyRetention(uint64_t seqs) { reply_retention_ = seqs; }
  size_t reply_cache_size() const { return reply_cache_.size(); }

  /// --- checkpointing ----------------------------------------------------
  /// Serialize state machine + reply cache + last_executed.
  Bytes Snapshot() const;
  /// Install a snapshot taken at sequence number `seq`.
  Status Restore(const Bytes& snapshot, uint64_t seq);
  /// Digest over Snapshot() — the "digest of the state" d in CHECKPOINT
  /// messages.
  Digest StateDigest() const;

  StateMachine* state_machine() { return state_machine_.get(); }
  uint64_t batches_executed() const { return batches_executed_; }

  /// Digest of the batch executed at each sequence number (agreement audit
  /// trail; tests use it to check prefix consistency across replicas).
  const ExecutedDigestLog& executed_digests() const {
    return executed_digests_;
  }

 private:
  struct CacheEntry {
    uint64_t timestamp = 0;
    Bytes reply;
    /// Seq of the batch that produced `reply`; drives retention eviction.
    /// Serialized into snapshots iff retention is enabled (restored
    /// replicas must evict on exactly the donor's schedule).
    uint64_t last_seq = 0;
  };

  /// A committed batch waiting for a lower seq to commit.
  struct PendingBatch {
    Batch batch;
    Digest digest;
  };

  /// Execute `batch` as `seq` (which must be last_executed_ + 1), appending
  /// its per-request outcomes to `out`.
  void ExecuteBatch(uint64_t seq, const Batch& batch, const Digest& digest,
                    std::vector<ExecutedRequest>& out);
  void EvictStaleReplies();

  std::unique_ptr<StateMachine> state_machine_;
  uint64_t last_executed_ = 0;
  uint64_t batches_executed_ = 0;
  uint64_t reply_retention_ = 0;  // 0 = unbounded (tool/test default)
  std::map<uint64_t, PendingBatch> pending_;  // waiting for lower seqs
  FlatHashMap<PrincipalId, CacheEntry> reply_cache_;
  ExecutedDigestLog executed_digests_;
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_EXECUTION_H_
