// S-UpRight integration tests: the hybrid failure budget (c crashes PLUS m
// Byzantine simultaneously) over N = 3m+2c+1 replicas with 2m+c+1 quorums.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SubmitAndWait;
using testing::SUpRightSpec;

TEST(SUpRightTest, TopologyMatchesPaper) {
  Cluster cluster(SUpRightSpec(/*c=*/1, /*m=*/1));
  EXPECT_EQ(cluster.n(), 6);  // 3m+2c+1
  scenario::ScenarioSpec big = SUpRightSpec(1, 3);
  EXPECT_EQ(big.ResolvedConfig().n(), 12);  // Fig 2(c) S-UpRight size
}

TEST(SUpRightTest, CommitsSingleRequest) {
  Cluster cluster(SUpRightSpec(1, 1));
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);
}

TEST(SUpRightTest, FullFailureBudget) {
  // c=1 crash AND m=1 Byzantine at the same time must not block progress.
  Cluster cluster(SUpRightSpec(1, 1));
  cluster.Crash(1);
  cluster.SetByzantine(4, kByzWrongVotes);
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(SUpRightTest, PrimaryCrashViewChange) {
  Cluster cluster(SUpRightSpec(1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  cluster.Crash(0);
  auto result = SubmitAndWait(cluster, client, MakePut("b", "2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(SUpRightTest, ClientNeedsOnlyMPlusOneMatching) {
  // With m=1, 2 matching replies suffice even while a replica lies.
  Cluster cluster(SUpRightSpec(1, 1));
  cluster.SetByzantine(5, kByzLieToClients);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("key", "true")).ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("key"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "true");
}

TEST(SUpRightTest, ReportsUnimplementedUpRightFeatures) {
  // S-UpRight is the paper's simplified comparator, not UpRight proper;
  // the class must say so explicitly.
  Cluster cluster(SUpRightSpec(1, 1));
  auto* replica = static_cast<SUpRightReplica*>(cluster.replica(0));
  EXPECT_GE(SUpRightReplica::UnimplementedFeatures().size(), 3u);
  const std::string description = replica->Describe();
  EXPECT_NE(description.find("S-UpRight"), std::string::npos);
  EXPECT_NE(description.find("N=6"), std::string::npos);      // 3m+2c+1
  EXPECT_NE(description.find("quorum 4"), std::string::npos);  // 2m+c+1
}

TEST(SUpRightTest, LargerHybridBudget) {
  // c=2, m=2 -> N=11, quorum 7.
  Cluster cluster(SUpRightSpec(2, 2));
  EXPECT_EQ(cluster.n(), 11);
  cluster.Crash(0);  // crash a private node (the view-0 primary!)
  cluster.SetByzantine(6, kByzWrongVotes);
  cluster.SetByzantine(7, kByzSilent);
  const uint64_t completed = RunBurst(cluster, 4, Millis(400));
  EXPECT_GT(completed, 20u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
