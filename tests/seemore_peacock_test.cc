// SeeMoRe Peacock mode (§5.3): PBFT among the 3m+1 proxies with an
// untrusted primary; the trusted transferer drives view changes; passive
// nodes execute after m+1 INFORMs.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReSpec;
using testing::SubmitAndWait;

TEST(PeacockTest, CommitsSingleRequest) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);
  // The Peacock primary lives in the public cloud.
  EXPECT_FALSE(
      cluster.config().IsTrusted(cluster.seemore(2)->current_primary()));
}

TEST(PeacockTest, PrivateNodesExecuteViaInforms) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  EXPECT_EQ(cluster.seemore(0)->last_executed(),
            cluster.seemore(2)->last_executed());
  EXPECT_EQ(cluster.seemore(1)->last_executed(),
            cluster.seemore(2)->last_executed());
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, ToleratesByzantineProxy) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  // View-0 proxies are {2,3,4,5} with primary 2; flag a non-primary proxy.
  cluster.SetByzantine(4, kByzWrongVotes);
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, PrimaryCrashTransfererRunsViewChange) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  const PrincipalId primary = cluster.seemore(0)->current_primary();
  cluster.Crash(primary);
  auto after = SubmitAndWait(cluster, client, MakePut("b", "2"), Seconds(10));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(cluster.seemore(0)->view(), 0u);
  EXPECT_EQ(cluster.seemore(0)->mode(), SeeMoReMode::kPeacock);
  // The new primary is the next public node in rotation.
  EXPECT_FALSE(
      cluster.config().IsTrusted(cluster.seemore(0)->current_primary()));
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, EquivocatingPrimaryRecovered) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  const PrincipalId primary = cluster.seemore(0)->current_primary();
  cluster.SetByzantine(primary, kByzEquivocate);
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(cluster.seemore(0)->view(), 0u);  // view change happened
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, LyingProxyCannotFoolClients) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  cluster.SetByzantine(5, kByzLieToClients);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("key", "honest")).ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("key"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "honest");
}

TEST(PeacockTest, QuorumCheckpointsAdvance) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  RunBurst(cluster, 4, Millis(300));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  int advanced = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.seemore(i)->stable_checkpoint() > 0) ++advanced;
  }
  EXPECT_GE(advanced, 4);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, ConcurrentClients) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  const uint64_t completed = RunBurst(cluster, 6, Millis(300));
  EXPECT_GT(completed, 50u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
