// The storage substrate in isolation: WAL framing and recovery (round
// trips, segment rolls, GC), the MemMedium failure semantics (process kill
// vs power loss), the snapshot store, and the fixed-seed torn-write /
// bit-flip fuzz over recovery: every probe must end in a clean
// prefix-preserving truncation or a typed kCorruption — never a crash, a
// hang, or silently divergent records.

#include <gtest/gtest.h>

#include "storage/crc32c.h"
#include "storage/file_store.h"
#include "storage/medium.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"
#include "util/logging.h"
#include "util/rng.h"

namespace seemore {
namespace storage {
namespace {

Bytes Payload(uint64_t tag, size_t size) {
  Bytes bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return bytes;
}

/// Append `count` deterministic variable-size records to a fresh WAL.
std::vector<Bytes> FillWal(MemMedium& medium, const WalOptions& options,
                           int count) {
  WriteAheadLog wal(&medium, options);
  SEEMORE_CHECK(wal.Create().ok());
  std::vector<Bytes> payloads;
  for (int i = 0; i < count; ++i) {
    payloads.push_back(Payload(static_cast<uint64_t>(i), 16 + (i * 7) % 90));
    SEEMORE_CHECK(
        wal.Append(payloads.back(), static_cast<uint64_t>(i)).ok());
  }
  SEEMORE_CHECK(wal.Sync().ok());
  return payloads;
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 test vector: 32 zero bytes.
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // An all-ones block, same source.
  Bytes ones(32, 0xff);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62a8ab43u);
  // Incremental == one-shot.
  Bytes data = Payload(3, 100);
  uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t split =
      Crc32cExtend(Crc32c(data.data(), 40), data.data() + 40, 60);
  EXPECT_EQ(whole, split);
}

TEST(WalTest, RoundTripsRecordsInOrder) {
  MemMedium medium;
  const std::vector<Bytes> payloads = FillWal(medium, WalOptions(), 50);
  Result<WalRecovery> recovered = RecoverWal(medium);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->payloads, payloads);
  EXPECT_EQ(recovered->truncated_bytes, 0u);
  EXPECT_EQ(recovered->segments_scanned, 1u);
}

TEST(WalTest, RollsSegmentsAndRecoversAcrossThem) {
  MemMedium medium;
  WalOptions options;
  options.segment_bytes = 512;  // force frequent rolls
  const std::vector<Bytes> payloads = FillWal(medium, options, 60);
  ASSERT_GT(medium.List("wal-").size(), 3u);
  Result<WalRecovery> recovered = RecoverWal(medium);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->payloads, payloads);
  EXPECT_EQ(recovered->truncated_bytes, 0u);
}

TEST(WalTest, GcDropsOnlyFullyCoveredSealedSegments) {
  MemMedium medium;
  WalOptions options;
  options.segment_bytes = 512;
  WriteAheadLog wal(&medium, options);
  ASSERT_TRUE(wal.Create().ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(wal.Append(Payload(i, 64), static_cast<uint64_t>(i)).ok());
  }
  const size_t before = medium.List("wal-").size();
  ASSERT_GT(before, 3u);
  ASSERT_TRUE(wal.GcBelow(30).ok());
  const size_t after = medium.List("wal-").size();
  EXPECT_LT(after, before);
  // Everything the GC kept still recovers, and records above the floor
  // all survive.
  Result<WalRecovery> recovered = RecoverWal(medium);
  ASSERT_TRUE(recovered.ok());
  size_t above_floor = 0;
  for (const Bytes& payload : recovered->payloads) {
    for (int i = 30; i < 60; ++i) {
      if (payload == Payload(i, 64)) ++above_floor;
    }
  }
  EXPECT_EQ(above_floor, 30u);
}

TEST(WalTest, RefusesCreateOverExistingSegments) {
  MemMedium medium;
  FillWal(medium, WalOptions(), 5);
  WriteAheadLog second(&medium, WalOptions());
  EXPECT_EQ(second.Create().code(), StatusCode::kFailedPrecondition);
}

/// Appends `count` records, beginning each background sync the WAL says is
/// due and completing it at once; returns the syncs run.
uint64_t AppendWithGroupCommit(MemMedium& medium, const WalOptions& options,
                               int count) {
  WriteAheadLog wal(&medium, options);
  SEEMORE_CHECK(wal.Create().ok());
  for (int i = 0; i < count; ++i) {
    SEEMORE_CHECK(wal.Append(Payload(i, 32), static_cast<uint64_t>(i)).ok());
    Result<WalSync> sync = wal.BeginSync();
    SEEMORE_CHECK(sync.ok());
    if (!sync->job) continue;
    SEEMORE_CHECK(sync->job().ok());
    wal.EndSync(sync->lsn);
    SEEMORE_CHECK(wal.durable_lsn() == wal.appended_lsn());
  }
  return wal.sync_count();
}

TEST(WalTest, FsyncIntervalBatchesSyncs) {
  MemMedium every;
  WalOptions one;
  one.fsync_interval = 1;
  MemMedium batched;
  WalOptions eight;
  eight.fsync_interval = 8;

  // One sync per append at interval 1, one per eight appends at 8.
  EXPECT_EQ(AppendWithGroupCommit(every, one, 32), 32u);
  EXPECT_EQ(AppendWithGroupCommit(batched, eight, 32), 4u);
  EXPECT_EQ(every.sync_calls(), 32u);
  EXPECT_EQ(batched.sync_calls(), 4u);
}

TEST(WalTest, GroupCommitCoversWhatWasAppendedBeforeItBegan) {
  MemMedium medium;
  WriteAheadLog wal(&medium, WalOptions());
  ASSERT_TRUE(wal.Create().ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(wal.Append(Payload(i, 40), static_cast<uint64_t>(i)).ok());
  }
  Result<WalSync> first = wal.BeginSync();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(static_cast<bool>(first->job));
  EXPECT_EQ(first->lsn, 3u);
  EXPECT_TRUE(wal.sync_in_flight());

  // Appends during the sync wait for the next one: at most one in flight.
  ASSERT_TRUE(wal.Append(Payload(4, 40), 4).ok());
  ASSERT_TRUE(wal.Append(Payload(5, 40), 5).ok());
  Result<WalSync> busy = wal.BeginSync();
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(static_cast<bool>(busy->job));
  EXPECT_EQ(wal.durable_lsn(), 0u);

  ASSERT_TRUE(first->job().ok());
  wal.EndSync(first->lsn);
  EXPECT_EQ(wal.durable_lsn(), 3u);
  EXPECT_LT(medium.DurableSize(WalSegmentName(0)),
            *medium.SizeOf(WalSegmentName(0)));

  Result<WalSync> second = wal.BeginSync();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(static_cast<bool>(second->job));
  EXPECT_EQ(second->lsn, 5u);
  ASSERT_TRUE(second->job().ok());
  wal.EndSync(second->lsn);
  EXPECT_EQ(wal.durable_lsn(), 5u);
  EXPECT_EQ(medium.DurableSize(WalSegmentName(0)),
            *medium.SizeOf(WalSegmentName(0)));
  EXPECT_EQ(wal.sync_count(), 2u);
  EXPECT_EQ(wal.inline_sync_count(), 0u);
}

TEST(MemMediumTest, PendingSyncLeavesTheDurableWatermark) {
  // A prepared sync whose completion has not run moves nothing: a power
  // loss in between loses what it covered, and the job does nothing once
  // it runs against the rolled-back file.
  MemMedium medium;
  const Bytes data = Payload(1, 1500);
  ASSERT_TRUE(medium.Append("f", data.data(), data.size()).ok());
  Result<SyncJob> job = medium.PrepareSync("f");
  ASSERT_TRUE(job.ok());
  const Bytes tail = Payload(2, 100);
  ASSERT_TRUE(medium.Append("f", tail.data(), tail.size()).ok());
  EXPECT_EQ(medium.DurableSize("f"), 0u);
  std::unique_ptr<MemMedium> lost = medium.Clone();

  // Completed: exactly the bytes appended before the sync began.
  ASSERT_TRUE((*job)().ok());
  EXPECT_EQ(medium.DurableSize("f"), data.size());

  // Power lost before completing: the durable prefix stays empty, the
  // tail is cut to whole sectors, and the late completion is void.
  Result<SyncJob> late = lost->PrepareSync("f");
  ASSERT_TRUE(late.ok());
  lost->PowerLoss();
  EXPECT_EQ(*lost->SizeOf("f"),
            1600 / MemMedium::kTornSector * MemMedium::kTornSector);
  ASSERT_TRUE((*late)().ok());
  EXPECT_EQ(lost->DurableSize("f"), 0u);
}

/// A SyncRunner whose completions fire only when the test says so.
class ManualSyncRunner final : public SyncRunner {
 public:
  void Run(SyncJob job, std::function<void(Status)> done) override {
    pending_.emplace_back(std::move(job), std::move(done));
  }
  size_t pending() const { return pending_.size(); }
  void CompleteOne() {
    auto [job, done] = std::move(pending_.front());
    pending_.erase(pending_.begin());
    done(job());
  }

 private:
  std::vector<std::pair<SyncJob, std::function<void(Status)>>> pending_;
};

TEST(FileDurableStoreTest, CommitSyncsRunInTheBackground) {
  MemMedium medium;
  DurabilityOptions options;
  options.enabled = true;
  FileDurableStore store(&medium, options, CostModel{});
  ASSERT_TRUE(store.OpenFresh().ok());
  auto runner = std::make_unique<ManualSyncRunner>();
  ManualSyncRunner* sync = runner.get();
  store.SetSyncRunner(std::move(runner));
  int advanced = 0;
  store.SetDurableListener([&] { ++advanced; });

  Batch batch;
  store.AppendCommit(1, batch);
  store.AppendCommit(2, batch);
  // Both records are written, one sync is in flight, nothing is durable.
  EXPECT_EQ(sync->pending(), 1u);
  EXPECT_EQ(store.ReplyLsn(), 2u);
  EXPECT_EQ(store.durable_lsn(), 0u);
  EXPECT_EQ(medium.DurableSize(WalSegmentName(0)), 0u);

  sync->CompleteOne();  // covers record 1; record 2 starts the next sync
  EXPECT_EQ(store.durable_lsn(), 1u);
  EXPECT_EQ(advanced, 1);
  EXPECT_EQ(sync->pending(), 1u);
  sync->CompleteOne();
  EXPECT_EQ(store.durable_lsn(), 2u);
  EXPECT_EQ(advanced, 2);
  EXPECT_EQ(sync->pending(), 0u);
  EXPECT_EQ(medium.DurableSize(WalSegmentName(0)),
            *medium.SizeOf(WalSegmentName(0)));

  // A view record is synced at once, covering the commit before it.
  store.AppendCommit(3, batch);
  store.NoteView(1, 0);
  EXPECT_EQ(store.durable_lsn(), store.wal().appended_lsn());
  EXPECT_EQ(advanced, 3);
  EXPECT_EQ(store.wal().sync_count(), 3u);
  sync->CompleteOne();  // the sync begun for record 3 lands late
  EXPECT_EQ(store.durable_lsn(), store.wal().appended_lsn());
  EXPECT_EQ(advanced, 3);
}

TEST(FileDurableStoreTest, LargerIntervalRepliesWithoutWaiting) {
  MemMedium medium;
  DurabilityOptions options;
  options.enabled = true;
  options.fsync_interval = 4;
  FileDurableStore store(&medium, options, CostModel{});
  ASSERT_TRUE(store.OpenFresh().ok());
  auto runner = std::make_unique<ManualSyncRunner>();
  ManualSyncRunner* sync = runner.get();
  store.SetSyncRunner(std::move(runner));
  Batch batch;
  for (uint64_t seq = 1; seq <= 3; ++seq) store.AppendCommit(seq, batch);
  EXPECT_EQ(sync->pending(), 0u);  // three records: no sync due yet
  EXPECT_EQ(store.ReplyLsn(), 0u);
  store.AppendCommit(4, batch);
  EXPECT_EQ(sync->pending(), 1u);
}

TEST(MemMediumTest, ProcessKillKeepsUnsyncedBytes) {
  // Nothing happens to the medium on a process kill: recovery sees every
  // appended record whether or not it was synced.
  MemMedium medium;
  WalOptions options;
  options.fsync_interval = 1000;  // never auto-sync
  WriteAheadLog wal(&medium, options);
  ASSERT_TRUE(wal.Create().ok());
  ASSERT_TRUE(wal.Append(Payload(1, 64), 1).ok());
  ASSERT_TRUE(wal.Append(Payload(2, 64), 2).ok());
  Result<WalRecovery> recovered = RecoverWal(medium);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->payloads.size(), 2u);
}

TEST(MemMediumTest, PowerLossRollsBackToDurableSectors) {
  MemMedium medium;
  WalOptions options;
  options.fsync_interval = 1000;
  WriteAheadLog wal(&medium, options);
  ASSERT_TRUE(wal.Create().ok());
  ASSERT_TRUE(wal.Append(Payload(1, 64), 1).ok());
  ASSERT_TRUE(wal.Sync().ok());  // first record durable
  for (int i = 2; i < 30; ++i) {
    ASSERT_TRUE(wal.Append(Payload(i, 64), static_cast<uint64_t>(i)).ok());
  }
  const std::string segment = WalSegmentName(0);
  const uint64_t full = *medium.SizeOf(segment);
  medium.PowerLoss();
  const uint64_t kept = *medium.SizeOf(segment);
  // The synced prefix survives; the unsynced tail is cut at sector
  // granularity, leaving at most a torn record at the edge.
  EXPECT_GE(kept, medium.DurableSize(segment));
  EXPECT_EQ(kept, std::max(medium.DurableSize(segment),
                           full / MemMedium::kTornSector *
                               MemMedium::kTornSector));
  Result<WalRecovery> recovered = RecoverWal(medium);
  ASSERT_TRUE(recovered.ok());
  ASSERT_GE(recovered->payloads.size(), 1u);  // the synced record
  EXPECT_LT(recovered->payloads.size(), 29u);
  EXPECT_EQ(recovered->payloads[0], Payload(1, 64));
}

TEST(WalFuzzTest, EveryTruncationOffsetRecoversCleanly) {
  // Chop the (single-segment) log at EVERY byte offset: recovery must
  // always succeed with a prefix of the original records — a torn tail is
  // never corruption, and no cut can make the scanner resurrect a record
  // the baseline did not hold.
  MemMedium baseline;
  const std::vector<Bytes> payloads = FillWal(baseline, WalOptions(), 40);
  const std::string segment = WalSegmentName(0);
  const uint64_t size = *baseline.SizeOf(segment);
  for (uint64_t cut = 0; cut < size; ++cut) {
    std::unique_ptr<MemMedium> probe = baseline.Clone();
    ASSERT_TRUE(probe->TruncateTo(segment, cut).ok());
    Result<WalRecovery> recovered = RecoverWal(*probe);
    ASSERT_TRUE(recovered.ok()) << "cut at " << cut << ": "
                                << recovered.status().ToString();
    ASSERT_LE(recovered->payloads.size(), payloads.size());
    for (size_t i = 0; i < recovered->payloads.size(); ++i) {
      ASSERT_EQ(recovered->payloads[i], payloads[i]) << "cut at " << cut;
    }
    // Deterministic: recovering the same image twice agrees byte for byte.
    Result<WalRecovery> again = RecoverWal(*probe);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->payloads, recovered->payloads);
    ASSERT_EQ(again->truncated_bytes, recovered->truncated_bytes);
  }
}

TEST(WalFuzzTest, RandomBitFlipsRecoverOrRefuseTyped) {
  // Fixed-seed golden replay: flip one random bit per probe. Recovery must
  // either (a) succeed with a strict prefix of the baseline records (the
  // flip landed in the reclaimable tail region) or (b) refuse with
  // kCorruption (intact records prove bytes were altered, not torn). Any
  // other outcome — a crash, a non-prefix record list, a different answer
  // on the second scan — is a bug.
  MemMedium baseline;
  WalOptions options;
  options.segment_bytes = 4096;  // several sealed segments + one open
  const std::vector<Bytes> payloads = FillWal(baseline, options, 160);
  const std::vector<std::string> segments = baseline.List("wal-");
  ASSERT_GT(segments.size(), 2u);

  Rng rng(0xD15C0FA7u);
  int truncations = 0;
  int refusals = 0;
  for (int probe = 0; probe < 256; ++probe) {
    const std::string& victim =
        segments[rng.NextBounded(segments.size())];
    std::unique_ptr<MemMedium> clone = baseline.Clone();
    const uint64_t size = *clone->SizeOf(victim);
    const uint64_t offset = rng.NextBounded(size);
    const int bit = static_cast<int>(rng.NextBounded(8));
    ASSERT_TRUE(clone->FlipBit(victim, offset, bit).ok());

    Result<WalRecovery> recovered = RecoverWal(*clone);
    if (recovered.ok()) {
      ++truncations;
      ASSERT_LT(recovered->payloads.size(), payloads.size());
      for (size_t i = 0; i < recovered->payloads.size(); ++i) {
        ASSERT_EQ(recovered->payloads[i], payloads[i])
            << victim << " offset " << offset << " bit " << bit;
      }
      ASSERT_GT(recovered->truncated_bytes, 0u);
    } else {
      ++refusals;
      ASSERT_EQ(recovered.status().code(), StatusCode::kCorruption)
          << victim << " offset " << offset << " bit " << bit;
    }
    Result<WalRecovery> again = RecoverWal(*clone);
    ASSERT_EQ(again.ok(), recovered.ok());
    if (again.ok()) {
      ASSERT_EQ(again->payloads, recovered->payloads);
    }
  }
  // Both outcomes must actually occur under this seed, or the oracle is
  // vacuous (e.g. flips in sealed segments always refuse; flips in the
  // open segment's tail record always truncate).
  EXPECT_GT(truncations, 0);
  EXPECT_GT(refusals, 0);
}

TEST(SnapshotStoreTest, RoundTripsSnapshotsWithCerts) {
  MemMedium medium;
  SnapshotStore store(&medium);
  const Bytes state1 = Payload(1, 300);
  const Bytes state2 = Payload(2, 500);
  ASSERT_TRUE(store.Save(16, Digest::Of(state1), state1).ok());
  ASSERT_TRUE(store.SaveCert(16, CheckpointCert::Genesis()).ok());
  ASSERT_TRUE(store.SyncAt(16).ok());
  ASSERT_TRUE(store.Save(32, Digest::Of(state2), state2).ok());

  uint64_t skipped = 0;
  std::vector<RecoveredSnapshot> all = SnapshotStore::LoadAll(medium,
                                                              &skipped);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(all[0].seq, 16u);
  EXPECT_TRUE(all[0].has_cert);
  EXPECT_EQ(all[0].bytes, state1);
  EXPECT_EQ(all[0].digest, Digest::Of(state1));
  EXPECT_EQ(all[1].seq, 32u);
  EXPECT_FALSE(all[1].has_cert);  // cut but never stable
  EXPECT_EQ(all[1].bytes, state2);
}

TEST(SnapshotStoreTest, DamagedSnapshotIsSkippedNotFatal) {
  MemMedium medium;
  SnapshotStore store(&medium);
  const Bytes state1 = Payload(1, 300);
  const Bytes state2 = Payload(2, 300);
  ASSERT_TRUE(store.Save(16, Digest::Of(state1), state1).ok());
  ASSERT_TRUE(store.Save(32, Digest::Of(state2), state2).ok());
  ASSERT_TRUE(medium.FlipBit(SnapshotFileName(32), 40, 3).ok());

  uint64_t skipped = 0;
  std::vector<RecoveredSnapshot> all = SnapshotStore::LoadAll(medium,
                                                              &skipped);
  // The newer snapshot is damaged: it falls out of the candidate list and
  // the older one still restores — recovery degrades, it does not fail.
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].seq, 16u);
  EXPECT_EQ(skipped, 1u);
}

TEST(SnapshotStoreTest, GcRemovesOnlyBelow) {
  MemMedium medium;
  SnapshotStore store(&medium);
  for (uint64_t seq : {16u, 32u, 48u}) {
    const Bytes state = Payload(seq, 100);
    ASSERT_TRUE(store.Save(seq, Digest::Of(state), state).ok());
    ASSERT_TRUE(store.SaveCert(seq, CheckpointCert::Genesis()).ok());
  }
  ASSERT_TRUE(store.GcBelow(48).ok());
  std::vector<RecoveredSnapshot> all = SnapshotStore::LoadAll(medium);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].seq, 48u);
}

}  // namespace
}  // namespace storage
}  // namespace seemore
