// The ordered commit funnel between protocol agreement and execution: every
// protocol marks slots committed and hands batches over HERE, and the queue
// feeds the ExecutionEngine (which applies batches strictly in sequence
// order, buffering gaps), charges the simulated execution cost and keeps the
// replica's commit/execution counters. Centralising this keeps the
// charge-vs-compute rule and the stats in one place instead of four copies.
//
// Also home of ReplicaStats, the per-replica counter block the scenario
// reports aggregate.

#ifndef SEEMORE_CONSENSUS_COMMIT_QUEUE_H_
#define SEEMORE_CONSENSUS_COMMIT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "consensus/execution.h"
#include "consensus/instance_log.h"
#include "net/cost_model.h"
#include "net/transport.h"
#include "storage/durable_store.h"

namespace seemore {

struct ReplicaStats {
  uint64_t requests_executed = 0;
  uint64_t batches_committed = 0;
  uint64_t view_changes_started = 0;
  uint64_t view_changes_completed = 0;
  uint64_t mode_changes = 0;
  uint64_t messages_handled = 0;
  /// Snapshots installed by state transfer (CheckpointingReplica counts
  /// each install once, in every protocol; requests are not counted).
  uint64_t state_transfers = 0;
  /// Conflicting votes for one slot/view from a single replica, flagged by
  /// the slot vote trackers (each faulty voter counts once per slot/phase).
  uint64_t equivocations_detected = 0;
  /// BATCH-REQUESTs sent, and fetched batches accepted (each hashed to the
  /// digest asked for at a seq still needed). Rejects are fetched batches
  /// dropped because they did not hash to that digest or did not decode.
  uint64_t batch_fetches = 0;
  uint64_t batches_fetched = 0;
  uint64_t batch_fetch_rejects = 0;
  /// VIEW-CHANGE and NEW-VIEW traffic sent (relays included), counted per
  /// receiver: bytes, frames, and the signed entries the frames name (a
  /// prepared certificate counts one plus one per prepare signature).
  uint64_t view_change_bytes_sent = 0;
  uint64_t view_change_msgs_sent = 0;
  uint64_t view_change_entries_sent = 0;
};

class CommitQueue {
 public:
  CommitQueue(ExecutionEngine& exec, ReplicaStats& stats, CpuMeter* cpu,
              const CostModel& costs)
      : exec_(exec), stats_(stats), cpu_(cpu), costs_(costs) {}

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Phase 1: flag the slot committed (through its log, which keeps the
  /// pacing count) and count the batch. Callers guard idempotence (a slot
  /// is marked at most once).
  void MarkCommitted(InstanceLog& log, SlotCore& slot) {
    log.SetCommitted(slot, true);
    ++stats_.batches_committed;
  }

  /// The commit funnel is the WAL hook point: with a durable store set,
  /// every committed batch is logged before execution (write-ahead order);
  /// the record's sync runs in the background, and replies wait for it.
  /// The default null pointer keeps the hot path to one predictable branch.
  void SetDurable(DurableStore* durable) {
    durable_ = durable != nullptr && durable->enabled() ? durable : nullptr;
  }

  /// Phase 2: enqueue (seq, batch) for in-order execution; `digest` is the
  /// batch's verified digest (the slot's). Executes every batch that became
  /// in-order runnable, charges the execution cost and returns the
  /// per-request outcomes for the caller's reply policy.
  std::vector<ExecutedRequest> Execute(uint64_t seq, const Batch& batch,
                                       const Digest& digest) {
    if (durable_ != nullptr) durable_->AppendCommit(seq, batch);
    std::vector<ExecutedRequest> executed = exec_.Commit(seq, batch, digest);
    cpu_->Charge(costs_.execute * static_cast<int64_t>(executed.size()));
    stats_.requests_executed += executed.size();
    return executed;
  }

  /// Both phases — the common case when nothing (e.g. an INFORM broadcast)
  /// has to happen between marking and execution.
  std::vector<ExecutedRequest> Commit(InstanceLog& log, uint64_t seq,
                                      SlotCore& slot) {
    MarkCommitted(log, slot);
    return Execute(seq, slot.batch, slot.digest);
  }

 private:
  ExecutionEngine& exec_;
  ReplicaStats& stats_;
  CpuMeter* cpu_;
  const CostModel costs_;
  DurableStore* durable_ = nullptr;  // null = in-memory only (the default)
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_COMMIT_QUEUE_H_
