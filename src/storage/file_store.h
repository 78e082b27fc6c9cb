// DurableStore backed by a StorageMedium: WAL + snapshot store + recovery.
//
// WAL record payloads (u8 type tag first):
//   kWalCommit: tag | seq varint | batch wire encoding
//   kWalView:   tag | view varint | mode u8
//
// Every segment opened after the first NoteView begins with a view record
// restating the current (view, mode), so stable-checkpoint GC of older
// segments can never lose the last view entered (the open segment always
// carries a copy).
//
// Commit records are synced in the background (WriteAheadLog::BeginSync)
// by the SyncRunner the composition root sets: the simulator's storage
// completion event or a node's sync thread. Their completions advance
// durable_lsn() and call the durable listener. View records, seals and
// snapshot/cert syncs run on the caller's thread and are charged to its CPU.
//
// Restart sequence (Cluster::Restart):
//   1. Recover(medium)      — read-only scan; kCorruption refuses restart.
//   2. OpenAfterRecovery()  — compact: damaged snapshots and the old
//      segments are deleted, a fresh WAL is seeded with the current view
//      and the commits above the newest snapshot, then synced. Replay
//      input lives entirely in the image, so this rewrite never
//      un-commits anything recovery reported.
//   3. ReplicaBase::RestoreFromImage(image) rebuilds the in-memory state.

#ifndef SEEMORE_STORAGE_FILE_STORE_H_
#define SEEMORE_STORAGE_FILE_STORE_H_

#include <functional>
#include <memory>

#include "net/cost_model.h"
#include "storage/durable_store.h"
#include "storage/medium.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace seemore {
namespace storage {

enum WalRecordType : uint8_t {
  kWalCommit = 1,
  kWalView = 2,
};

class FileDurableStore final : public DurableStore {
 public:
  /// `medium` outlives the store; `options.enabled` must be true.
  FileDurableStore(StorageMedium* medium, const DurabilityOptions& options,
                   const CostModel& costs);

  /// Read-only recovery: scan WAL + snapshots into an image. The single
  /// typed failure is kCorruption (mid-log damage); torn tails and damaged
  /// snapshots degrade gracefully and are counted in the image.
  static Result<RecoveredImage> Recover(const StorageMedium& medium);

  /// Start with an empty medium (a brand-new replica).
  Status OpenFresh();
  /// Start over a recovered medium (see the restart sequence above).
  Status OpenAfterRecovery(const RecoveredImage& image);

  /// Where commit-record syncs run. Without a runner (a store no replica
  /// drives, as in unit tests and probes) each one runs at once.
  void SetSyncRunner(std::unique_ptr<SyncRunner> runner) {
    runner_ = std::move(runner);
  }

  bool enabled() const override { return true; }
  void BindCpu(CpuMeter* cpu) override { cpu_ = cpu; }

  void AppendCommit(uint64_t seq, const Batch& batch) override;
  void NoteView(uint64_t view, uint8_t mode) override;
  void SaveSnapshot(uint64_t seq, const Digest& digest,
                    const Bytes& snapshot) override;
  void NoteStable(uint64_t seq, const CheckpointCert& cert) override;

  uint64_t ReplyLsn() const override {
    return options_.fsync_interval == 1 ? wal_.appended_lsn() : 0;
  }
  uint64_t durable_lsn() const override { return wal_.durable_lsn(); }
  void SetDurableListener(std::function<void()> listener) override {
    listener_ = std::move(listener);
  }

  const WriteAheadLog& wal() const { return wal_; }

 private:
  /// Frame-and-append plus cost accounting (write cost per KiB now, fsync
  /// cost when the append sealed a segment).
  void Append(const Bytes& payload, uint64_t watermark);
  /// Starts the background sync the WAL says is due, if any.
  void MaybeStartSync();
  /// Calls the listener if durable_lsn() moved since it was last called.
  void NotifyDurable();
  void Charge(SimTime cost) {
    if (cpu_ != nullptr) cpu_->Charge(cost);
  }
  void ChargeSyncDelta();
  Bytes EncodeViewRecord() const;

  StorageMedium* medium_;
  const DurabilityOptions options_;
  const CostModel costs_;
  WriteAheadLog wal_;
  SnapshotStore snapshots_;
  CpuMeter* cpu_ = nullptr;  // bound by AttachDurable; null during recovery
  uint64_t charged_syncs_ = 0;
  uint64_t charged_segments_ = 0;
  bool has_view_ = false;
  uint64_t view_ = 0;
  uint8_t mode_ = 0;
  uint64_t last_commit_seq_ = 0;
  uint64_t notified_lsn_ = 0;
  std::function<void()> listener_;
  /// Declared last, so it is destroyed first: a sync still in flight can
  /// then no longer call back into this store.
  std::unique_ptr<SyncRunner> runner_;
};

}  // namespace storage
}  // namespace seemore

#endif  // SEEMORE_STORAGE_FILE_STORE_H_
