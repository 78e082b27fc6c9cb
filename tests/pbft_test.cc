// PBFT baseline integration tests: normal case, Byzantine backups and
// primaries, view changes, checkpoints, state transfer.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::BftSpec;
using testing::RunBurst;
using testing::SubmitAndWait;

TEST(PbftTest, CommitsSingleRequest) {
  Cluster cluster(BftSpec(/*f=*/1));
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);
}

TEST(PbftTest, AllReplicasConverge) {
  Cluster cluster(BftSpec(1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckConvergence({0, 1, 2, 3}).ok());
}

TEST(PbftTest, ConcurrentClientsAgree) {
  Cluster cluster(BftSpec(1));
  const uint64_t completed = RunBurst(cluster, 6, Millis(300));
  EXPECT_GT(completed, 50u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, ToleratesSilentByzantineBackup) {
  Cluster cluster(BftSpec(1));
  cluster.SetByzantine(3, kByzSilent);
  const uint64_t completed = RunBurst(cluster, 4, Millis(250));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, ToleratesWrongVoteByzantineBackup) {
  Cluster cluster(BftSpec(1));
  cluster.SetByzantine(2, kByzWrongVotes);
  const uint64_t completed = RunBurst(cluster, 4, Millis(250));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, ClientUnharmedByLyingReplica) {
  Cluster cluster(BftSpec(1));
  cluster.SetByzantine(3, kByzLieToClients);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("key", "truth")).ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("key"));
  ASSERT_TRUE(get.ok());
  // f+1 matching replies guarantee the value is the honest one.
  EXPECT_EQ(ParseKvReply(*get).value, "truth");
}

TEST(PbftTest, PrimaryCrashTriggersViewChange) {
  Cluster cluster(BftSpec(1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  cluster.Crash(0);
  auto after = SubmitAndWait(cluster, client, MakePut("b", "2"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(cluster.pbft(1)->view(), 0u);
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, EquivocatingPrimaryRecoveredByViewChange) {
  Cluster cluster(BftSpec(1));
  cluster.SetByzantine(0, kByzEquivocate);  // view-0 primary lies
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Progress required a view change away from the equivocator.
  EXPECT_GT(cluster.pbft(1)->view(), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, CheckpointsAdvance) {
  scenario::ScenarioSpec spec = BftSpec(1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  RunBurst(cluster, 4, Millis(300));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  int advanced = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.pbft(i)->stable_checkpoint() > 0) ++advanced;
  }
  EXPECT_GE(advanced, 3);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, CrashedReplicaStateTransfersOnRecovery) {
  scenario::ScenarioSpec spec = BftSpec(1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  cluster.Crash(3);
  RunBurst(cluster, 4, Millis(300));
  const uint64_t before = cluster.pbft(0)->last_executed();
  ASSERT_GT(before, 10u);
  cluster.Recover(3);
  RunBurst(cluster, 4, Millis(400));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  EXPECT_GT(cluster.pbft(3)->last_executed(), before);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, ViewChangeStableSeqMustMatchItsCertificate) {
  // A Byzantine replica signs VIEW-CHANGEs for views 1..64 that claim a
  // stable checkpoint at seq 1000000 under the genesis certificate, which
  // proves seq 0. Were the claim taken as the NEW-VIEW floor, every honest
  // prepared proof below it would be dropped and the new primary would
  // jump its next seq out of the window: views would climb with nothing
  // executed. The claim must be refused, so the view change recovers.
  Cluster cluster(BftSpec(1));
  cluster.SetByzantine(3, kByzSilent);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  const Signer forger(3, cluster.keystore());
  for (uint64_t view = 1; view <= 64; ++view) {
    const Bytes forged = PbftViewChangeMsg::Build(
        view, /*stable_seq=*/1000000, CheckpointCert::Genesis(), {}, forger);
    for (int r = 0; r < 3; ++r) cluster.replica(r)->OnMessage(3, forged);
  }
  // The primary goes quiet for 100 ms: the backups suspect it and change
  // view. The request must still commit within 10 s.
  FaultPlane& faults = cluster.net().faults();
  for (int r = 1; r < 4; ++r) faults.CutLink(0, r);
  bool done = false;
  client->SubmitOne(MakePut("b", "2"), [&done](const Bytes&) { done = true; });
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  for (int r = 1; r < 4; ++r) faults.RestoreLink(0, r);
  const SimTime deadline = cluster.sim().now() + Seconds(10);
  while (!done && cluster.sim().now() < deadline && cluster.sim().Step()) {
  }
  EXPECT_TRUE(done);
  EXPECT_GT(cluster.pbft(1)->view(), 0u);
  EXPECT_GT(cluster.pbft(1)->last_executed(), 1u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, LargerClusterF2) {
  Cluster cluster(BftSpec(2));  // n = 7
  cluster.SetByzantine(5, kByzWrongVotes);
  cluster.Crash(6);  // second fault is a crash
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
