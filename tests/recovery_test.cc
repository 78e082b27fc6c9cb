// Crash/restart recovery end to end: the kill-restart twins (a replica
// restored from its durable WAL + snapshots must commit identically to one
// that rejoined with its memory intact), torn-write injection at every
// offset of the live WAL's last segment, the typed mid-log corruption
// refusal, power-loss fallback to an older snapshot, and restart across
// every protocol family.

#include <gtest/gtest.h>

#include "scenario/engine.h"
#include "scenario/registry.h"
#include "storage/file_store.h"
#include "tests/test_util.h"
#include "util/logging.h"

namespace seemore {
namespace {

using scenario::ApplyQuickBudgets;
using scenario::FindScenario;
using scenario::RunScenario;
using scenario::ScenarioReport;
using scenario::ScenarioSpec;

ScenarioReport RunRegistryScenario(const std::string& name) {
  Result<ScenarioSpec> spec = FindScenario(name);
  SEEMORE_CHECK(spec.ok()) << spec.status().ToString();
  ApplyQuickBudgets(*spec);
  Result<ScenarioReport> report = RunScenario(*spec);
  SEEMORE_CHECK(report.ok()) << report.status().ToString();
  return *std::move(report);
}

/// The acceptance gate for durable recovery: under a fixed seed, the
/// kill-and-restart run and its kill-and-rejoin twin must agree on every
/// verdict and end with every replica at the same execution frontier and
/// state digest. Restoring from disk may not change history.
void ExpectTwinRuns(const std::string& restart_name,
                    const std::string& rejoin_name) {
  const ScenarioReport restarted = RunRegistryScenario(restart_name);
  const ScenarioReport rejoined = RunRegistryScenario(rejoin_name);

  EXPECT_TRUE(restarted.agreement.ok()) << restarted.agreement.ToString();
  EXPECT_TRUE(restarted.convergence.ok()) << restarted.convergence.ToString();
  EXPECT_TRUE(rejoined.agreement.ok());
  EXPECT_TRUE(rejoined.convergence.ok());

  EXPECT_EQ(restarted.result.completed, rejoined.result.completed);
  ASSERT_EQ(restarted.replicas.size(), rejoined.replicas.size());
  for (size_t i = 0; i < restarted.replicas.size(); ++i) {
    EXPECT_EQ(restarted.replicas[i].last_executed,
              rejoined.replicas[i].last_executed)
        << "replica " << i;
    EXPECT_EQ(restarted.replicas[i].state_digest,
              rejoined.replicas[i].state_digest)
        << "replica " << i;
  }
}

TEST(RecoveryTest, KillRestartPrimaryCommitsIdenticallyToRejoinTwin) {
  ExpectTwinRuns("kill-restart-primary", "kill-rejoin-primary");
}

TEST(RecoveryTest, KillRestartBackupCommitsIdenticallyToRejoinTwin) {
  ExpectTwinRuns("kill-restart-backup", "kill-rejoin-backup");
}

TEST(RecoveryTest, WalCorruptionRefusalScenarioLeavesReplicaDead) {
  const ScenarioReport report =
      RunRegistryScenario("wal-corruption-refusal");
  EXPECT_TRUE(report.ok());
  bool saw_refusal = false;
  for (const scenario::AppliedEvent& event : report.events) {
    if (event.description.find("refused") != std::string::npos) {
      saw_refusal = true;
      EXPECT_NE(event.description.find("Corruption"), std::string::npos)
          << event.description;
    }
  }
  EXPECT_TRUE(saw_refusal);
  // The replica with the poisoned log never came back; the cluster
  // converged without it.
  EXPECT_TRUE(report.replicas[2].crashed);
  EXPECT_FALSE(report.replicas[0].crashed);
}

TEST(RecoveryTest, PowerLossScenarioRestoresAndConverges) {
  const ScenarioReport report = RunRegistryScenario("power-loss-checkpoint");
  EXPECT_TRUE(report.ok());
  bool saw_restore = false;
  for (const scenario::AppliedEvent& event : report.events) {
    if (event.description.find("restored from snapshot") !=
        std::string::npos) {
      saw_restore = true;
    }
  }
  EXPECT_TRUE(saw_restore);
  EXPECT_FALSE(report.replicas[1].crashed);
}

/// Build a durable Lion cluster, run traffic, crash a replica, and return
/// the cluster (the caller probes the crashed replica's disk image).
struct TornWriteRig {
  explicit TornWriteRig(int victim) {
    scenario::ScenarioSpec spec =
        testing::SeeMoReSpec(SeeMoReMode::kLion, 1, 1, /*seed=*/9);
    spec.tuning.checkpoint_period = 16;
    spec.durability.enabled = true;
    spec.durability.fsync_interval = 4;
    spec.durability.segment_bytes = 8 * 1024;
    cluster = std::make_unique<Cluster>(spec);
    testing::RunBurst(*cluster, 4, Millis(250));
    cluster->Crash(victim);
  }
  std::unique_ptr<Cluster> cluster;
};

TEST(RecoveryTest, TornWriteAtEveryOffsetOfLastSegmentRecoversOrRefuses) {
  // The ISSUE's acceptance probe: truncate the crashed replica's WAL at
  // EVERY offset of its last segment. Every probe must recover (a torn
  // tail: commits are a prefix of the baseline) — truncation loses bytes,
  // it never fabricates them, so the typed-corruption path must not fire.
  TornWriteRig rig(/*victim=*/2);
  storage::MemMedium* disk = rig.cluster->medium(2);
  const std::vector<std::string> segments = disk->List("wal-");
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  const uint64_t size = *disk->SizeOf(last);
  ASSERT_GT(size, 100u);

  Result<RecoveredImage> baseline = storage::FileDurableStore::Recover(*disk);
  ASSERT_TRUE(baseline.ok());
  const size_t full_commits = baseline->commits.size();
  ASSERT_GT(full_commits, 0u);

  for (uint64_t cut = 0; cut < size; ++cut) {
    std::unique_ptr<storage::MemMedium> probe = disk->Clone();
    ASSERT_TRUE(probe->TruncateTo(last, cut).ok());
    Result<RecoveredImage> image = storage::FileDurableStore::Recover(*probe);
    ASSERT_TRUE(image.ok()) << "cut at " << cut << ": "
                            << image.status().ToString();
    ASSERT_LE(image->commits.size(), full_commits);
    for (size_t i = 0; i < image->commits.size(); ++i) {
      ASSERT_EQ(image->commits[i].first, baseline->commits[i].first)
          << "cut at " << cut;
    }
  }
}

TEST(RecoveryTest, BitFlipAtEveryByteOfLastSegmentRecoversOrRefusesTyped) {
  // One flipped bit per byte position: recovery must either truncate to a
  // clean commit prefix or refuse with kCorruption. Nothing else — no
  // crash, no reordered or invented commits.
  TornWriteRig rig(/*victim=*/2);
  storage::MemMedium* disk = rig.cluster->medium(2);
  const std::vector<std::string> segments = disk->List("wal-");
  const std::string& last = segments.back();
  const uint64_t size = *disk->SizeOf(last);

  Result<RecoveredImage> baseline = storage::FileDurableStore::Recover(*disk);
  ASSERT_TRUE(baseline.ok());

  int refusals = 0;
  for (uint64_t offset = 0; offset < size; ++offset) {
    std::unique_ptr<storage::MemMedium> probe = disk->Clone();
    ASSERT_TRUE(probe->FlipBit(last, offset,
                               static_cast<int>(offset % 8)).ok());
    Result<RecoveredImage> image = storage::FileDurableStore::Recover(*probe);
    if (!image.ok()) {
      ASSERT_EQ(image.status().code(), StatusCode::kCorruption)
          << "offset " << offset;
      ++refusals;
      continue;
    }
    ASSERT_LE(image->commits.size(), baseline->commits.size());
    for (size_t i = 0; i < image->commits.size(); ++i) {
      ASSERT_EQ(image->commits[i].first, baseline->commits[i].first)
          << "offset " << offset;
    }
  }
  // Flips before the final record must refuse (later intact frames prove
  // corruption); only flips in the very tail truncate.
  EXPECT_GT(refusals, 0);
}

TEST(RecoveryTest, RestartRefusedOnTamperedMidLogThenReplicaStaysDown) {
  TornWriteRig rig(/*victim=*/2);
  Cluster& cluster = *rig.cluster;
  // Flip a bit far from the tail: guaranteed mid-log damage.
  ASSERT_TRUE(cluster.TamperWal(2, storage::WalTamper::kFlipBit,
                                /*offset_from_end=*/3000).ok());
  Result<RestartOutcome> outcome = cluster.Restart(2);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(cluster.replica(2)->crashed());
  // The cluster keeps running without the refused replica.
  const uint64_t before = cluster.seemore(0)->last_executed();
  testing::RunBurst(cluster, 4, Millis(200));
  EXPECT_GT(cluster.seemore(0)->last_executed(), before);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

/// Crash -> traffic -> restart-from-disk -> traffic: the restarted replica
/// must resume from its durable image, catch up past the pre-crash
/// frontier, and agree with everyone.
template <typename GetExecuted>
void CrashRestartCatchUp(Cluster& cluster, int victim,
                         GetExecuted executed_of) {
  testing::RunBurst(cluster, 4, Millis(250));
  cluster.Crash(victim);
  testing::RunBurst(cluster, 4, Millis(250));
  const uint64_t progress = executed_of(0);
  ASSERT_GT(progress, 20u);

  Result<RestartOutcome> outcome = cluster.Restart(victim);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The durable image held real state: a snapshot, replayed commits, or
  // both.
  EXPECT_GT(outcome->snapshot_seq + outcome->replayed_commits, 0u);
  // Replay recomputes each batch's digest from the WAL record; it must equal
  // the digest a live replica logged from its agreed slot for the same seq.
  const ExecutedDigestLog& replayed =
      cluster.replica(victim)->exec().executed_digests();
  const ExecutedDigestLog& live = cluster.replica(0)->exec().executed_digests();
  uint64_t compared = 0;
  for (uint64_t seq = replayed.floor();
       !replayed.empty() && seq <= replayed.ceil(); ++seq) {
    if (live.Find(seq) == nullptr) continue;
    EXPECT_EQ(replayed.at(seq), live.at(seq)) << "seq " << seq;
    ++compared;
  }
  EXPECT_EQ(compared, replayed.size());
  EXPECT_GT(compared, 0u) << "no commit replayed above the snapshot";

  testing::RunBurst(cluster, 4, Millis(400));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
  EXPECT_GT(executed_of(victim), progress);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

scenario::ScenarioSpec WithDurability(scenario::ScenarioSpec spec) {
  spec.tuning.checkpoint_period = 16;
  spec.durability.enabled = true;
  spec.durability.fsync_interval = 1;
  return spec;
}

TEST(RecoveryTest, LionPublicReplicaRestartsFromDisk) {
  Cluster cluster(
      WithDurability(testing::SeeMoReSpec(SeeMoReMode::kLion, 1, 1)));
  CrashRestartCatchUp(cluster, /*victim=*/4, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(RecoveryTest, PbftReplicaRestartsFromDisk) {
  Cluster cluster(WithDurability(testing::BftSpec(1)));
  CrashRestartCatchUp(cluster, /*victim=*/3, [&](int i) {
    return cluster.pbft(i)->last_executed();
  });
}

TEST(RecoveryTest, PaxosReplicaRestartsFromDisk) {
  Cluster cluster(WithDurability(testing::CftSpec(1)));
  CrashRestartCatchUp(cluster, /*victim=*/2, [&](int i) {
    return cluster.paxos(i)->last_executed();
  });
}

TEST(RecoveryTest, SUpRightReplicaRestartsFromDisk) {
  Cluster cluster(WithDurability(testing::SUpRightSpec(1, 1)));
  CrashRestartCatchUp(cluster, /*victim=*/3, [&](int i) {
    return cluster.pbft(i)->last_executed();
  });
}

TEST(RecoveryTest, PowerLossFallsBackToOlderSnapshotAndCatchesUp) {
  // Batched fsyncs leave a window: after power loss the newest snapshot may
  // be gone or torn, but an older durable one plus the surviving log must
  // still restore a consistent replica.
  scenario::ScenarioSpec spec =
      testing::SeeMoReSpec(SeeMoReMode::kLion, 1, 1, /*seed=*/11);
  spec.tuning.checkpoint_period = 16;
  spec.durability.enabled = true;
  spec.durability.fsync_interval = 64;
  Cluster cluster(spec);
  testing::RunBurst(cluster, 4, Millis(300));
  cluster.PowerLoss(4);
  testing::RunBurst(cluster, 4, Millis(200));
  const uint64_t progress = cluster.seemore(0)->last_executed();
  ASSERT_GT(progress, 20u);

  Result<RestartOutcome> outcome = cluster.Restart(4);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  testing::RunBurst(cluster, 4, Millis(400));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
  EXPECT_GT(cluster.seemore(4)->last_executed(), progress);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(RecoveryTest, RestartRequiresDurabilityAndACrashedTarget) {
  // Typed refusals, not CHECK failures: restart without durability...
  scenario::ScenarioSpec plain = testing::SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  Cluster no_disk(plain);
  no_disk.Crash(3);
  EXPECT_EQ(no_disk.Restart(3).status().code(),
            StatusCode::kFailedPrecondition);

  // ...and restart of a live replica.
  Cluster durable(
      WithDurability(testing::SeeMoReSpec(SeeMoReMode::kLion, 1, 1)));
  EXPECT_EQ(durable.Restart(3).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(durable.TamperWal(3, storage::WalTamper::kTruncate, 10).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace seemore
