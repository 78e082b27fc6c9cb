// Checkpointing and state transfer across protocols: partition + heal,
// deep lag, each protocol's certificate rule at its quorum boundary, a
// forged snapshot under a valid certificate, and garbage collection bounds.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReSpec;

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
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  PartitionHealCatchUp(cluster, /*victim=*/4, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
  EXPECT_GT(cluster.replica(4)->stats().state_transfers, 0u);
}

TEST(StateTransferTest, LionPartitionedPrivateBackupCatchesUp) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  PartitionHealCatchUp(cluster, /*victim=*/1, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(StateTransferTest, DogPassiveNodeCatchesUp) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kDog, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  PartitionHealCatchUp(cluster, /*victim=*/1, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(StateTransferTest, PeacockProxyCatchesUp) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  PartitionHealCatchUp(cluster, /*victim=*/5, [&](int i) {
    return cluster.seemore(i)->last_executed();
  });
}

TEST(StateTransferTest, PbftPartitionedReplicaCatchesUp) {
  scenario::ScenarioSpec spec = testing::BftSpec(1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  PartitionHealCatchUp(cluster, /*victim=*/3, [&](int i) {
    return cluster.pbft(i)->last_executed();
  });
}

TEST(StateTransferTest, CftPartitionedReplicaCatchesUp) {
  scenario::ScenarioSpec spec = testing::CftSpec(1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  PartitionHealCatchUp(cluster, /*victim=*/2, [&](int i) {
    return cluster.paxos(i)->last_executed();
  });
}

TEST(StateTransferTest, CheckpointGarbageCollectionIsBounded) {
  // The log (slots map) must not grow without bound while checkpoints
  // advance; stable checkpoints garbage-collect everything at or below.
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
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
  // Opt-in reply-cache retention (spec.tuning.reply_cache_retention) is
  // consensus state: eviction keys off each entry's last-execution seq,
  // which travels inside snapshots so a replica restored from a checkpoint
  // evicts on exactly the donor's schedule. Partition + heal forces a
  // snapshot restore on the victim; afterwards any two replicas at the same
  // execution point must have byte-identical engine state, reply cache
  // included — a restored replica that guessed last_seq would diverge here.
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  spec.tuning.reply_cache_retention = 32;
  Cluster cluster(spec);
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
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  spec.tuning.reply_cache_retention = 32;
  spec.durability.enabled = true;
  spec.durability.fsync_interval = 1;
  Cluster cluster(spec);
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

/// A checkpoint vote signed by `signer` with its real key.
CheckpointMsg SignedVote(const KeyStore& keys, PrincipalId signer,
                         uint64_t seq, const Digest& digest) {
  CheckpointMsg vote;
  vote.seq = seq;
  vote.state_digest = digest;
  vote.replica = signer;
  vote.Sign(Signer(signer, keys));
  return vote;
}

/// A certificate for (seq 64, `digest`) signed by each of `signers`.
CheckpointCert CertFrom(const KeyStore& keys,
                        const std::vector<PrincipalId>& signers,
                        const Digest& digest) {
  CheckpointCert cert;
  for (PrincipalId signer : signers) {
    cert.Add(SignedVote(keys, signer, 64, digest));
  }
  return cert;
}

/// The stability predicate and certificate check each protocol really runs
/// (CheckpointingReplica::VerifyCheckpointCert, which state responses and
/// view changes share), probed at its quorum boundary.
struct CertRow {
  const char* protocol;
  scenario::ScenarioSpec spec;
  /// Signers that are not trusted replicas (ascending); the first `quorum`
  /// of them make a certificate.
  std::vector<PrincipalId> untrusted;
  size_t quorum;
  /// Does trusted replica 0's signature alone make a certificate?
  bool lone_trusted_certifies;
};

TEST(StateTransferTest, CheckpointCertificateRulesAtTheirBoundary) {
  const std::vector<CertRow> rows = {
      // 2m+1 public signers, or any one private (trusted) signer.
      {"seemore", SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1), {2, 3, 4, 5}, 3,
       true},
      // 2f+1 of N = 3f+1; replica 0 is trusted by no one.
      {"pbft", testing::BftSpec(1), {1, 2, 3}, 3, false},
      // 2m+c+1 of N = 3m+2c+1, blind to where the private cloud is.
      {"supright", testing::SUpRightSpec(1, 1), {1, 2, 3, 4, 5}, 4, false},
  };
  const Digest digest = Digest::Of(Bytes{1, 2, 3});
  const Digest other = Digest::Of(Bytes{9, 9, 9});
  for (const CertRow& row : rows) {
    SCOPED_TRACE(row.protocol);
    Cluster cluster(row.spec);
    const KeyStore& keys = cluster.keystore();
    const auto& replica =
        *static_cast<const CheckpointingReplica*>(cluster.replica(0));
    const auto first = [&](size_t count) {
      return std::vector<PrincipalId>(row.untrusted.begin(),
                                      row.untrusted.begin() + count);
    };

    EXPECT_TRUE(replica.VerifyCheckpointCert(CheckpointCert::Genesis()));
    EXPECT_FALSE(
        replica.VerifyCheckpointCert(CertFrom(keys, first(row.quorum - 1),
                                              digest)));
    EXPECT_TRUE(replica.VerifyCheckpointCert(
        CertFrom(keys, first(row.quorum), digest)));

    // A duplicate signer counts once.
    std::vector<PrincipalId> padded = first(row.quorum - 1);
    padded.push_back(padded.front());
    EXPECT_FALSE(replica.VerifyCheckpointCert(CertFrom(keys, padded, digest)));

    // One bad signature, or one vote for another seq or digest, spoils an
    // otherwise complete certificate.
    const std::vector<PrincipalId> quorum = first(row.quorum);
    CheckpointCert forged = CertFrom(keys, first(row.quorum - 1), digest);
    CheckpointMsg bad_sig = SignedVote(keys, quorum.back(), 64, digest);
    bad_sig.sig.data()[0] ^= 0xff;
    forged.Add(bad_sig);
    EXPECT_FALSE(replica.VerifyCheckpointCert(forged));
    CheckpointCert wrong_seq = CertFrom(keys, first(row.quorum - 1), digest);
    wrong_seq.Add(SignedVote(keys, quorum.back(), 65, digest));
    EXPECT_FALSE(replica.VerifyCheckpointCert(wrong_seq));
    CheckpointCert wrong_digest = CertFrom(keys, first(row.quorum - 1), digest);
    wrong_digest.Add(SignedVote(keys, quorum.back(), 64, other));
    EXPECT_FALSE(replica.VerifyCheckpointCert(wrong_digest));

    // The trusted primary's lone signature certifies only in SeeMoRe.
    EXPECT_EQ(replica.VerifyCheckpointCert(CertFrom(keys, {0}, digest)),
              row.lone_trusted_certifies);
  }
}

TEST(StateTransferTest, LaggardRefusesForgedSnapshotUnderValidCert) {
  // Replica 5 is cut off while the cluster runs ahead. A Byzantine peer
  // then offers it a snapshot under a genuine certificate (the trusted
  // primary's signed checkpoint), but with forged bytes: the digest check
  // must refuse it and leave execution where it was. The honest bytes
  // under the same certificate do install, so the refusal is not vacuous.
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  FaultPlane& faults = cluster.net().faults();
  for (int i = 0; i < 5; ++i) {
    faults.CutLink(5, i);
    faults.CutLink(i, 5);
  }
  RunBurst(cluster, 4, Millis(200));
  const uint64_t lag = cluster.seemore(5)->last_executed();
  const uint64_t seq = cluster.seemore(0)->last_executed();
  ASSERT_GT(seq, lag);

  const Bytes honest = cluster.replica(0)->exec().Snapshot();
  StateResponseMsg response;
  response.cert.Add(
      SignedVote(cluster.keystore(), 0, seq, Digest::Of(honest)));
  response.snapshot = honest;
  response.snapshot.back() ^= 0xff;
  cluster.replica(5)->OnMessage(4, response.ToMessage(kSmStateResponse));
  EXPECT_EQ(cluster.seemore(5)->last_executed(), lag);
  EXPECT_EQ(cluster.replica(5)->stats().state_transfers, 0u);

  response.snapshot = honest;
  cluster.replica(5)->OnMessage(4, response.ToMessage(kSmStateResponse));
  EXPECT_EQ(cluster.seemore(5)->last_executed(), seq);
  EXPECT_EQ(cluster.replica(5)->stats().state_transfers, 1u);
}

TEST(StateTransferTest, RecoverAfterLongOutage) {
  // Crash -> multiple checkpoint periods pass -> recover: the node must
  // come back via snapshot, not by replaying a GC'd log.
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
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
