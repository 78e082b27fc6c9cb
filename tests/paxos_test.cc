// CFT (Paxos) baseline integration tests: normal case, leader failure,
// checkpoint GC, state transfer, message loss.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::CftSpec;
using testing::RunBurst;
using testing::SubmitAndWait;

TEST(PaxosTest, CommitsSingleRequest) {
  Cluster cluster(CftSpec(/*f=*/1));
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);

  auto get = SubmitAndWait(cluster, client, MakeGet("k"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "v");
}

TEST(PaxosTest, AllReplicasExecuteCommittedRequests) {
  Cluster cluster(CftSpec(1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 10; ++i) {
    auto r = SubmitAndWait(cluster, client,
                           MakePut("k" + std::to_string(i), "v"));
    ASSERT_TRUE(r.ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.paxos(i)->last_executed(),
              cluster.paxos(0)->last_executed())
        << "replica " << i;
  }
  EXPECT_TRUE(cluster.CheckConvergence({0, 1, 2}).ok());
}

TEST(PaxosTest, ConcurrentClientsAgree) {
  Cluster cluster(CftSpec(2));
  const uint64_t completed = RunBurst(cluster, 8, Millis(300));
  EXPECT_GT(completed, 100u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PaxosTest, BackupCrashHarmless) {
  Cluster cluster(CftSpec(1));
  cluster.Crash(2);  // backup
  const uint64_t completed = RunBurst(cluster, 4, Millis(200));
  EXPECT_GT(completed, 50u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PaxosTest, LeaderCrashTriggersViewChange) {
  Cluster cluster(CftSpec(1));
  SimClient* client = cluster.AddClient();
  auto warm = SubmitAndWait(cluster, client, MakePut("a", "1"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cluster.paxos(0)->IsPrimary());

  cluster.Crash(0);
  auto after = SubmitAndWait(cluster, client, MakePut("b", "2"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  // A surviving replica moved to a higher view with a live leader.
  EXPECT_GT(cluster.paxos(1)->view(), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());

  // The new leader still serves reads written before the crash.
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
}

TEST(PaxosTest, RepeatedLeaderCrashes) {
  Cluster cluster(CftSpec(2));  // n=5 tolerates 2 crashes
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("x", "0")).ok());
  cluster.Crash(0);
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("x", "1")).ok());
  cluster.Crash(1);
  auto final_put = SubmitAndWait(cluster, client, MakePut("x", "2"));
  ASSERT_TRUE(final_put.ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("x"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "2");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PaxosTest, CheckpointsAdvanceAndGarbageCollect) {
  scenario::ScenarioSpec spec = CftSpec(1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  RunBurst(cluster, 4, Millis(300));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_GT(cluster.paxos(i)->stable_checkpoint(), 0u) << "replica " << i;
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PaxosTest, LaggingReplicaCatchesUpViaStateTransfer) {
  scenario::ScenarioSpec spec = CftSpec(1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  cluster.Crash(2);
  RunBurst(cluster, 4, Millis(300));
  const uint64_t leader_executed = cluster.paxos(0)->last_executed();
  ASSERT_GT(leader_executed, 20u);

  cluster.Recover(2);
  // New traffic makes the cluster checkpoint again; the recovering node
  // state-transfers to the new stable point.
  RunBurst(cluster, 4, Millis(400));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  EXPECT_GT(cluster.paxos(2)->last_executed(), leader_executed);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PaxosTest, ToleratesMessageLoss) {
  scenario::ScenarioSpec spec = CftSpec(1);
  spec.net.drop_probability = 0.03;
  Cluster cluster(spec);
  const uint64_t completed = RunBurst(cluster, 4, Millis(400));
  EXPECT_GT(completed, 20u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PaxosTest, ExactlyOnceUnderRetransmission) {
  // Force client retransmissions with heavy loss; the counter-like CAS
  // pattern would expose double execution.
  scenario::ScenarioSpec spec = CftSpec(1);
  spec.net.drop_probability = 0.10;
  spec.client_retransmit_timeout = Millis(20);
  Cluster cluster(spec);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("ctr", "0")).ok());
  for (int i = 0; i < 10; ++i) {
    auto cas = SubmitAndWait(
        cluster, client,
        MakeCas("ctr", std::to_string(i), std::to_string(i + 1)));
    ASSERT_TRUE(cas.ok()) << "iteration " << i;
    // Under exactly-once semantics every CAS succeeds exactly once.
    EXPECT_EQ(ParseKvReply(*cas).status, KvResult::kOk) << "iteration " << i;
  }
  auto get = SubmitAndWait(cluster, client, MakeGet("ctr"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "10");
}

}  // namespace
}  // namespace seemore
