// View-change stress: the failure patterns that historically wedge SMR
// implementations. Several of these are regression tests for bugs found
// while building this repo (see the comments), all of which manifest as a
// permanently view-churning or silent cluster.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReSpec;
using testing::SubmitAndWait;

// Regression: after a view change, replicas that had already committed a
// re-proposed sequence number must still vote in the new view, or peers
// that missed the commit can never assemble a quorum and the cluster churns
// views forever. Trigger: view change under load with a deep in-flight
// pipeline and mixed commit progress.
TEST(ViewChangeStressTest, ViewChangeUnderLoadRecoversLion) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.batch_max = 64;
  spec.tuning.pipeline_max = 4;
  Cluster cluster(spec);
  for (int i = 0; i < 12; ++i) {
    cluster.AddClient()->Start(KvWorkload(700 + i, 64, 0.5));
  }
  cluster.sim().RunUntil(Millis(100));
  cluster.Crash(0);  // primary dies mid-load
  cluster.sim().RunUntil(Millis(800));
  uint64_t before = 0;
  for (int i = 0; i < 12; ++i) before += cluster.client(i)->completed();
  cluster.sim().RunUntil(Millis(1100));
  uint64_t after = 0;
  for (int i = 0; i < 12; ++i) after += cluster.client(i)->completed();
  // Sustained progress after recovery, not a one-off trickle.
  EXPECT_GT(after - before, 200u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_LT(cluster.seemore(1)->view(), 20u) << "view churn detected";
}

TEST(ViewChangeStressTest, ViewChangeUnderLoadRecoversDog) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kDog, 1, 1);
  spec.tuning.batch_max = 64;
  spec.tuning.pipeline_max = 4;
  Cluster cluster(spec);
  for (int i = 0; i < 12; ++i) {
    cluster.AddClient()->Start(KvWorkload(800 + i, 64, 0.5));
  }
  cluster.sim().RunUntil(Millis(100));
  cluster.Crash(0);
  cluster.sim().RunUntil(Millis(800));
  uint64_t before = 0;
  for (int i = 0; i < 12; ++i) before += cluster.client(i)->completed();
  cluster.sim().RunUntil(Millis(1100));
  uint64_t after = 0;
  for (int i = 0; i < 12; ++i) after += cluster.client(i)->completed();
  EXPECT_GT(after - before, 200u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_LT(cluster.seemore(1)->view(), 20u) << "view churn detected";
}

// Regression: the new primary's request-dedup map must reset on view entry,
// or clients whose request was nooped by the view change are starved
// forever (their retransmissions are "already seen").
TEST(ViewChangeStressTest, NoopedRequestsRecoverViaRetransmission) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.pipeline_max = 4;
  Cluster cluster(spec);
  for (int i = 0; i < 8; ++i) {
    cluster.AddClient()->Start(KvWorkload(900 + i, 64, 0.5));
  }
  // Repeatedly crash+recover the view-0 primary to force noop-heavy VCs.
  cluster.sim().RunUntil(Millis(80));
  cluster.Crash(0);
  cluster.sim().RunUntil(Millis(400));
  cluster.Recover(0);
  cluster.sim().RunUntil(Millis(500));
  cluster.Crash(1);
  cluster.sim().RunUntil(Millis(1200));

  // EVERY client keeps completing requests (none starved).
  for (int i = 0; i < 8; ++i) {
    const uint64_t before = cluster.client(i)->completed();
    cluster.sim().RunUntil(cluster.sim().now() + Millis(400));
    EXPECT_GT(cluster.client(i)->completed(), before) << "client " << i
                                                      << " starved";
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

// Cascading failures: crash the primary of every successive view in a CFT
// cluster that can afford it (f=2), then verify the survivors finish.
TEST(ViewChangeStressTest, CascadingPrimaryFailuresCft) {
  scenario::ScenarioSpec spec = testing::CftSpec(2);
  Cluster cluster(spec);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("k", "v0")).ok());
  cluster.Crash(0);
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("k", "v1")).ok());
  cluster.Crash(1);
  ASSERT_TRUE(
      SubmitAndWait(cluster, client, MakePut("k", "v2"), Seconds(10)).ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("k"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "v2");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

// A Byzantine public node spams VIEW-CHANGE messages: a single liar must
// never force the cluster out of a healthy view (join needs a trusted
// suspicion or m+1 public ones).
TEST(ViewChangeStressTest, LoneByzantineCannotForceViewChanges) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  // Run healthy traffic; replica 5 votes garbage the whole time (its VC
  // messages from timer expiry would also be alone).
  cluster.SetByzantine(5, kByzWrongVotes);
  RunBurst(cluster, 4, Millis(400));
  // The healthy primary was never deposed.
  EXPECT_EQ(cluster.seemore(0)->view(), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

// Peacock: crash the primary of view v, then the primary of view v+1 too
// (both public, within m only if m >= 2 — use m=2).
TEST(ViewChangeStressTest, ConsecutivePeacockPrimaryFailures) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 2));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  const PrincipalId p0 = cluster.seemore(0)->current_primary();
  cluster.Crash(p0);
  cluster.sim().RunUntil(cluster.sim().now() + Millis(30));
  // Also crash what will be the next primary before it can do anything.
  const PrincipalId p1 = cluster.config().PeacockPrimary(
      cluster.seemore(0)->view() + 1);
  if (p1 != p0) cluster.Crash(p1);
  auto result = SubmitAndWait(cluster, client, MakePut("b", "2"), Seconds(15));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
