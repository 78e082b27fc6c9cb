// Dynamic mode switching (§5.4): MODE-CHANGE + view change into the new
// mode, preservation of committed state, authority checks, full cycles.

#include <gtest/gtest.h>

#include "scenario/builder.h"
#include "scenario/engine.h"
#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReSpec;
using testing::SubmitAndWait;

/// Switch the cluster's mode and wait until every live replica adopted it.
void SwitchModeAndSettle(Cluster& cluster, SeeMoReMode target) {
  // Find the trusted authority for view v+1 under the target mode.
  SeeMoReReplica* any = cluster.seemore(0);
  const uint64_t next_view = any->view() + 1;
  const PrincipalId authority = any->SwitchAuthority(target, next_view);
  ASSERT_TRUE(cluster.config().IsTrusted(authority));
  Status status = cluster.seemore(authority)->RequestModeSwitch(target);
  ASSERT_TRUE(status.ok()) << status.ToString();
  cluster.sim().RunUntil(cluster.sim().now() + Millis(500));
}

TEST(ModeSwitchTest, LionToDog) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());

  SwitchModeAndSettle(cluster, SeeMoReMode::kDog);
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.seemore(i)->mode(), SeeMoReMode::kDog) << "replica " << i;
  }

  // Data written in Lion survives; new writes commit in Dog.
  auto get = SubmitAndWait(cluster, client, MakeGet("a"), Seconds(10));
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("b", "2")).ok());
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(ModeSwitchTest, LionToPeacock) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());

  SwitchModeAndSettle(cluster, SeeMoReMode::kPeacock);
  EXPECT_EQ(cluster.seemore(2)->mode(), SeeMoReMode::kPeacock);
  EXPECT_FALSE(
      cluster.config().IsTrusted(cluster.seemore(2)->current_primary()));

  auto get = SubmitAndWait(cluster, client, MakeGet("a"), Seconds(10));
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(ModeSwitchTest, FullCycleLionDogPeacockLion) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  int key = 0;
  auto write_and_verify = [&](const std::string& tag) {
    const std::string k = "key" + std::to_string(key++);
    auto put = SubmitAndWait(cluster, client, MakePut(k, tag), Seconds(10));
    ASSERT_TRUE(put.ok()) << tag << ": " << put.status().ToString();
    auto get = SubmitAndWait(cluster, client, MakeGet(k), Seconds(10));
    ASSERT_TRUE(get.ok());
    EXPECT_EQ(ParseKvReply(*get).value, tag);
  };

  write_and_verify("in-lion");
  SwitchModeAndSettle(cluster, SeeMoReMode::kDog);
  write_and_verify("in-dog");
  SwitchModeAndSettle(cluster, SeeMoReMode::kPeacock);
  write_and_verify("in-peacock");
  SwitchModeAndSettle(cluster, SeeMoReMode::kLion);
  write_and_verify("back-in-lion");

  EXPECT_EQ(cluster.seemore(0)->mode(), SeeMoReMode::kLion);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(ModeSwitchTest, SwitchUnderLoad) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  // Drive traffic continuously across the switch.
  for (int i = 0; i < 4; ++i) cluster.AddClient();
  for (int i = 0; i < 4; ++i) {
    cluster.client(i)->Start(KvWorkload(100 + i, 32, 0.5));
  }
  cluster.sim().RunUntil(Millis(100));

  SeeMoReReplica* any = cluster.seemore(0);
  const uint64_t next_view = any->view() + 1;
  const PrincipalId authority =
      any->SwitchAuthority(SeeMoReMode::kDog, next_view);
  ASSERT_TRUE(
      cluster.seemore(authority)->RequestModeSwitch(SeeMoReMode::kDog).ok());

  cluster.sim().RunUntil(Millis(600));
  for (int i = 0; i < 4; ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(Millis(1200));

  EXPECT_EQ(cluster.seemore(2)->mode(), SeeMoReMode::kDog);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  // Clients kept completing requests across the switch.
  uint64_t total = 0;
  for (int i = 0; i < 4; ++i) total += cluster.client(i)->completed();
  EXPECT_GT(total, 100u);
}

TEST(ModeSwitchTest, RejectsWrongAuthority) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  // View 0 -> next view 1; authority for Dog is TrustedPrimary(1) = 1.
  // Replica 0 is NOT the authority.
  Status status = cluster.seemore(0)->RequestModeSwitch(SeeMoReMode::kDog);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // Switching to the current mode is rejected too.
  EXPECT_FALSE(cluster.seemore(1)->RequestModeSwitch(SeeMoReMode::kLion).ok());
}

TEST(ModeSwitchTest, DogToLionKeepsPassiveNodesConsistent) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  SwitchModeAndSettle(cluster, SeeMoReMode::kLion);
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("after", "w")).ok());
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.seemore(i)->mode(), SeeMoReMode::kLion);
  }
}

TEST(ModeSwitchTest, EveryReplicaCountsEveryScheduledSwitch) {
  // Backups that install a view through NEW-VIEW count the mode change
  // exactly like the authority that built it.
  scenario::ScenarioBuilder builder;
  builder.SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(5)
      .Clients(4)
      .Kv(32, 0.5)
      .SwitchAt(Millis(50), SeeMoReMode::kDog)
      .SwitchAt(Millis(150), SeeMoReMode::kPeacock)
      .SwitchAt(Millis(250), SeeMoReMode::kLion)
      .Warmup(Millis(20))
      .Measure(Millis(430));
  std::vector<uint64_t> mode_changes;
  scenario::ScenarioHooks hooks;
  hooks.on_finish = [&](Cluster& cluster) {
    for (int i = 0; i < cluster.n(); ++i) {
      EXPECT_EQ(cluster.seemore(i)->mode(), SeeMoReMode::kLion);
      mode_changes.push_back(cluster.replica(i)->stats().mode_changes);
    }
  };
  Result<scenario::ScenarioReport> report =
      scenario::RunScenario(builder.spec(), hooks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const scenario::AppliedEvent& event : report->events) {
    EXPECT_NE(event.description.find(": Ok"), std::string::npos)
        << event.description;
  }
  ASSERT_EQ(mode_changes.size(), 6u);
  for (size_t i = 0; i < mode_changes.size(); ++i) {
    EXPECT_EQ(mode_changes[i], 3u) << "replica " << i;
  }
}

TEST(ModeSwitchTest, LiveSwitchAuthoritySkipsCrashedAuthorities) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  const SeeMoReReplica& vantage = *cluster.seemore(2);
  const PrincipalId next = vantage.SwitchAuthority(SeeMoReMode::kDog, 1);
  const PrincipalId after = vantage.SwitchAuthority(SeeMoReMode::kDog, 2);
  ASSERT_NE(next, after);
  const auto all_live = [](PrincipalId) { return true; };
  EXPECT_EQ(vantage.LiveSwitchAuthority(SeeMoReMode::kDog, all_live), next);
  const auto next_dead = [next](PrincipalId r) { return r != next; };
  EXPECT_EQ(vantage.LiveSwitchAuthority(SeeMoReMode::kDog, next_dead), after);
  // Only S views ahead are tried: with every trusted replica down there is
  // no authority left to ask.
  const auto none = [](PrincipalId) { return false; };
  EXPECT_EQ(vantage.LiveSwitchAuthority(SeeMoReMode::kDog, none), -1);

  // The sim's RequestSwitch applies the same pick: with the next authority
  // crashed the request lands on the one after it, whose own view does not
  // yet make it the authority, so the refusal names that rule.
  cluster.Crash(next);
  const Status status = scenario::RequestSwitch(cluster, SeeMoReMode::kDog);
  EXPECT_NE(status.message().find("trusted authority"), std::string::npos)
      << status.ToString();
  cluster.Crash(after);
  EXPECT_EQ(scenario::RequestSwitch(cluster, SeeMoReMode::kDog).code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace seemore
