// SeeMoRe Dog mode (§5.2): trusted primary sequences, 3m+1 public proxies
// agree (quorum 2m+1), passive nodes execute after 2m+1 INFORMs.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReSpec;
using testing::SubmitAndWait;

TEST(DogTest, CommitsSingleRequest) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);
}

TEST(DogTest, PassivePrivateNodesExecuteViaInforms) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  // Private nodes (0, 1) never run agreement but still execute everything.
  EXPECT_EQ(cluster.seemore(0)->last_executed(),
            cluster.seemore(2)->last_executed());
  EXPECT_EQ(cluster.seemore(1)->last_executed(),
            cluster.seemore(2)->last_executed());
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(DogTest, NonProxyPublicNodeExecutesViaInforms) {
  // P = 5 > 3m+1 = 4: one public node is outside the proxy window.
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kDog, 1, 1);
  spec.topology.p = 5;
  Cluster cluster(spec);
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  // Find the non-proxy public node in view 0 and check it executed.
  for (int i = 2; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.seemore(i)->last_executed(),
              cluster.seemore(2)->last_executed())
        << "replica " << i;
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(DogTest, ToleratesByzantineProxy) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  cluster.SetByzantine(3, kByzWrongVotes);
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(DogTest, ToleratesSilentProxyAndCrashedPrivate) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  cluster.SetByzantine(2, kByzSilent);
  cluster.Crash(1);  // passive private backup; agreement unaffected
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(DogTest, PrimaryCrashViewChangeDrivenByPublicCloud) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  cluster.Crash(0);  // trusted primary
  auto after = SubmitAndWait(cluster, client, MakePut("b", "2"), Seconds(10));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(cluster.seemore(1)->view(), 0u);
  EXPECT_EQ(cluster.seemore(1)->mode(), SeeMoReMode::kDog);
  EXPECT_TRUE(cluster.seemore(1)->IsPrimary());
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(DogTest, ClientWaits2MPlus1ProxyReplies) {
  // One lying proxy cannot corrupt the client's 2m+1 matching requirement.
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  cluster.SetByzantine(4, kByzLieToClients);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("key", "real")).ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("key"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "real");
}

TEST(DogTest, CheckpointsAndGc) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kDog, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  RunBurst(cluster, 4, Millis(300));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_GT(cluster.seemore(i)->stable_checkpoint(), 0u) << "replica " << i;
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(DogTest, LargerBudgetC2M2) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 2, 2));
  EXPECT_EQ(cluster.n(), 11);
  cluster.SetByzantine(5, kByzWrongVotes);
  cluster.SetByzantine(6, kByzSilent);
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 20u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
