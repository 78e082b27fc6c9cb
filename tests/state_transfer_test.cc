// Checkpointing and state transfer across protocols: partition + heal,
// deep lag, certificate validation against forged snapshots, and garbage
// collection bounds.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReOptions;

/// Cut one replica off from everyone, generate traffic past several
/// checkpoints, heal, and verify catch-up via snapshot transfer.
template <typename GetExecuted>
void PartitionHealCatchUp(Cluster& cluster, int victim,
                          GetExecuted executed_of) {
  FaultPlane& faults = cluster.net().faults();
  for (int i = 0; i < cluster.n(); ++i) {
    if (i == victim) continue;
    faults.CutLink(victim, i);
    faults.CutLink(i, victim);
  }
  RunBurst(cluster, 4, Millis(400));
  const uint64_t cluster_progress = executed_of(0);
  ASSERT_GT(cluster_progress, 30u);
  EXPECT_LT(executed_of(victim), cluster_progress);

  for (int i = 0; i < cluster.n(); ++i) {
    if (i == victim) continue;
    faults.RestoreLink(victim, i);
    faults.RestoreLink(i, victim);
  }
  RunBurst(cluster, 4, Millis(500));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
  EXPECT_GT(executed_of(victim), cluster_progress);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(StateTransferTest, LionPartitionedPublicNodeCatchesUp) {
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kLion, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/4, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
  EXPECT_GT(cluster.replica(4)->stats().state_transfers, 0u);
}

TEST(StateTransferTest, LionPartitionedPrivateBackupCatchesUp) {
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kLion, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/1, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(StateTransferTest, DogPassiveNodeCatchesUp) {
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kDog, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/1, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(StateTransferTest, PeacockProxyCatchesUp) {
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/5, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(StateTransferTest, PbftPartitionedReplicaCatchesUp) {
  ClusterOptions options = testing::BftOptions(1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/3, [&](int i) {
    return cluster.pbft(i)->last_executed();
  });
}

TEST(StateTransferTest, CftPartitionedReplicaCatchesUp) {
  ClusterOptions options = testing::CftOptions(1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/2, [&](int i) {
    return cluster.paxos(i)->last_executed();
  });
}

TEST(StateTransferTest, CheckpointGarbageCollectionIsBounded) {
  // The log (slots map) must not grow without bound while checkpoints
  // advance; stable checkpoints garbage-collect everything at or below.
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kLion, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  RunBurst(cluster, 4, Millis(600));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  for (int i = 0; i < cluster.n(); ++i) {
    const SeeMoReReplica* replica = cluster.seemore(i);
    EXPECT_GT(replica->stable_checkpoint(), 0u);
    // Everything below the stable point was pruned; the remaining window is
    // small (in-flight + one checkpoint period).
    EXPECT_LE(replica->last_executed() - replica->stable_checkpoint(), 64u)
        << "replica " << i;
  }
}

TEST(StateTransferTest, ReplyRetentionSurvivesStateTransfer) {
  // Opt-in reply-cache retention (ClusterConfig::reply_cache_retention) is
  // consensus state: eviction keys off each entry's last-execution seq,
  // which travels inside snapshots so a replica restored from a checkpoint
  // evicts on exactly the donor's schedule. Partition + heal forces a
  // snapshot restore on the victim; afterwards any two replicas at the same
  // execution point must have byte-identical engine state, reply cache
  // included — a restored replica that guessed last_seq would diverge here.
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kLion, 1, 1);
  options.config.checkpoint_period = 8;
  options.config.reply_cache_retention = 32;
  Cluster cluster(options);
  PartitionHealCatchUp(cluster, /*victim=*/4, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
  ASSERT_GT(cluster.replica(4)->stats().state_transfers, 0u);
  for (int i = 0; i < cluster.n(); ++i) {
    // Retention bounds every cache at the clients active in the window.
    EXPECT_LE(cluster.replica(i)->exec().reply_cache_size(), 8u)
        << "replica " << i;
    for (int j = i + 1; j < cluster.n(); ++j) {
      if (cluster.seemore(i)->last_executed() !=
          cluster.seemore(j)->last_executed()) {
        continue;
      }
      EXPECT_EQ(cluster.replica(i)->exec().StateDigest(),
                cluster.replica(j)->exec().StateDigest())
          << "replicas " << i << " and " << j;
    }
  }
}

TEST(StateTransferTest, ReplyRetentionSurvivesDurableRestart) {
  // The disk path of the retention invariant above: the victim is rebuilt
  // from its own durable snapshot store (Cluster::Restart), then catches
  // up. Retention state travels inside snapshot bytes, so a replica
  // restored from disk must evict on exactly the donor's schedule too —
  // digest equality at equal frontiers would break if the restored engine
  // guessed any entry's last-execution seq.
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kLion, 1, 1);
  options.config.checkpoint_period = 8;
  options.config.reply_cache_retention = 32;
  options.durability.enabled = true;
  options.durability.fsync_interval = 1;
  Cluster cluster(options);
  RunBurst(cluster, 4, Millis(300));
  cluster.Crash(4);
  RunBurst(cluster, 4, Millis(400));
  const uint64_t progress = cluster.seemore(0)->last_executed();
  ASSERT_GT(progress, 30u);

  Result<RestartOutcome> outcome = cluster.Restart(4);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_GT(outcome->snapshot_seq, 0u);  // restored from a durable snapshot

  RunBurst(cluster, 4, Millis(500));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
  EXPECT_GT(cluster.seemore(4)->last_executed(), progress);
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_LE(cluster.replica(i)->exec().reply_cache_size(), 8u)
        << "replica " << i;
    for (int j = i + 1; j < cluster.n(); ++j) {
      if (cluster.seemore(i)->last_executed() !=
          cluster.seemore(j)->last_executed()) {
        continue;
      }
      EXPECT_EQ(cluster.replica(i)->exec().StateDigest(),
                cluster.replica(j)->exec().StateDigest())
          << "replicas " << i << " and " << j;
    }
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(StateTransferTest, ByzantineSnapshotRejected) {
  // A Byzantine public node cannot poison a recovering replica: snapshots
  // must match the digest in a valid checkpoint certificate, which needs a
  // trusted signer or a 2m+1 public quorum. Here we verify the negative
  // path directly through the certificate API.
  KeyStore store(77);
  ClusterConfig config;
  config.kind = ProtocolKind::kSeeMoRe;
  config.s = 2;
  config.p = 4;
  config.c = 1;
  config.m = 1;

  Bytes honest_snapshot = {1, 2, 3};
  Bytes forged_snapshot = {9, 9, 9};
  CheckpointMsg msg;
  msg.seq = 42;
  msg.state_digest = Digest::Of(honest_snapshot);
  msg.replica = 4;  // untrusted
  msg.Sign(Signer(4, store));
  CheckpointCert cert;
  cert.Add(msg);

  // One untrusted signer is not a certificate...
  int trusted = 0, untrusted = 0;
  for (const auto& m : cert.msgs()) {
    (config.IsTrusted(m.replica) ? trusted : untrusted) += 1;
  }
  EXPECT_EQ(trusted, 0);
  EXPECT_LT(untrusted, 2 * config.m + 1);
  // ...and even with a quorum, a forged snapshot fails the digest check.
  EXPECT_NE(Digest::Of(forged_snapshot), cert.state_digest());
}

TEST(StateTransferTest, RecoverAfterLongOutage) {
  // Crash -> multiple checkpoint periods pass -> recover: the node must
  // come back via snapshot, not by replaying a GC'd log.
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kLion, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  cluster.Crash(5);
  RunBurst(cluster, 4, Millis(600));
  const uint64_t progress = cluster.seemore(0)->last_executed();
  ASSERT_GT(progress, 50u);
  cluster.Recover(5);
  RunBurst(cluster, 4, Millis(500));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
  EXPECT_GT(cluster.seemore(5)->last_executed(), progress);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
