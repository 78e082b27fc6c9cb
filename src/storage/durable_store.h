// The seam between protocol code and durable storage.
//
// Protocols stay storage-agnostic: ReplicaBase holds a DurableStore* that
// defaults to the shared no-op Null() store, and the hooks below are invoked
// from exactly four places — the commit funnel (CommitQueue::Execute), the
// checkpoint cut (MaybeCheckpoint), the stable advance, and EnterView. With
// the null store every hook is an empty virtual call guarded by enabled(),
// so all existing goldens stay bit-identical; with a FileDurableStore
// (storage/file_store.h) the same hooks feed a segmented WAL + snapshot
// store. A commit record is only written on the replica's loop; its sync
// runs off the loop (group commit), and the replica holds each reply until
// the durable log position passes it (ReplyLsn, durable_lsn). View records,
// segment seals and snapshot syncs stay on the loop and are charged to the
// replica's CPU.
//
// RecoveredImage is what a restart hands back to the replica stack: the
// newest valid snapshots (stable + still-buffered), the commit records above
// them, and the last view the replica had durably entered.

#ifndef SEEMORE_STORAGE_DURABLE_STORE_H_
#define SEEMORE_STORAGE_DURABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "consensus/batch.h"
#include "net/transport.h"
#include "storage/snapshot_store.h"

namespace seemore {

/// Knobs for the durable path; `enabled == false` (the default) keeps every
/// run purely in-memory and bit-identical to the historical behaviour.
struct DurabilityOptions {
  bool enabled = false;
  /// Unsynced commit records that start a sync. At 1 a sync starts
  /// whenever one is unsynced and no reply leaves before its record is
  /// durable; a larger interval syncs less often and lets replies leave
  /// first, opening the power-loss window the scenarios probe.
  int fsync_interval = 1;
  /// WAL segment roll size in bytes.
  uint32_t segment_bytes = 64 * 1024;
};

class DurableStore {
 public:
  virtual ~DurableStore() = default;

  /// The process-wide no-op store (never null; safe default target).
  static DurableStore* Null();

  virtual bool enabled() const { return false; }

  /// Bind the replica's CPU meter so storage work is charged to it; called
  /// by ReplicaBase::AttachDurable (and again after a restart, since the
  /// new incarnation gets a fresh CPU).
  virtual void BindCpu(CpuMeter* /*cpu*/) {}

  /// A batch committed at `seq` — append a commit record (and start a
  /// background sync if one is due).
  virtual void AppendCommit(uint64_t /*seq*/, const Batch& /*batch*/) {}
  /// The replica entered (view, mode) — append a view record, synced
  /// immediately (view durability is what makes restart vote-safe).
  virtual void NoteView(uint64_t /*view*/, uint8_t /*mode*/) {}
  /// A checkpoint was cut at `seq` — persist the snapshot bytes.
  virtual void SaveSnapshot(uint64_t /*seq*/, const Digest& /*digest*/,
                            const Bytes& /*snapshot*/) {}
  /// Checkpoint `seq` became stable — persist the cert, make the snapshot
  /// durable and garbage-collect everything below it.
  virtual void NoteStable(uint64_t /*seq*/,
                          const CheckpointCert& /*cert*/) {}

  /// The log position a reply sent now must wait for: at fsync_interval 1
  /// every record appended so far, else 0 (no wait).
  virtual uint64_t ReplyLsn() const { return 0; }
  /// The log position known durable.
  virtual uint64_t durable_lsn() const { return 0; }
  /// `listener` runs on the replica's loop whenever durable_lsn() advances.
  virtual void SetDurableListener(std::function<void()> /*listener*/) {}
};

/// Everything a replica needs to rebuild after a restart.
struct RecoveredImage {
  /// Last durably-entered view (absent when the replica never left view 0).
  bool has_view = false;
  uint64_t view = 0;
  uint8_t mode = 0;

  /// Valid snapshots, ascending by seq.
  std::vector<storage::RecoveredSnapshot> snapshots;
  /// Commit records in WAL append order (replay dedups, so overlap with the
  /// snapshots is harmless).
  std::vector<std::pair<uint64_t, Batch>> commits;

  /// Recovery provenance, surfaced in scenario event descriptions.
  uint64_t wal_records = 0;
  uint64_t truncated_bytes = 0;
  uint64_t snapshots_skipped = 0;

  /// Newest snapshot (execution restore point), or null when none survived.
  const storage::RecoveredSnapshot* Latest() const {
    return snapshots.empty() ? nullptr : &snapshots.back();
  }
  /// Newest STABLE snapshot (checkpoint floor restore point), or null.
  const storage::RecoveredSnapshot* LatestStable() const {
    for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
      if (it->has_cert) return &*it;
    }
    return nullptr;
  }
  uint64_t MaxCommitSeq() const {
    uint64_t max_seq = 0;
    for (const auto& [seq, batch] : commits) {
      if (seq > max_seq) max_seq = seq;
    }
    return max_seq;
  }
};

}  // namespace seemore

#endif  // SEEMORE_STORAGE_DURABLE_STORE_H_
