// SeeMoRe Lion mode (§5.1): trusted primary, unsigned accepts, 2 phases,
// quorum 2m+c+1; view change among all replicas.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReSpec;
using testing::SubmitAndWait;

TEST(LionTest, CommitsSingleRequest) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  EXPECT_EQ(cluster.n(), 6);  // 2c private + 3m+1 public (§6.1)
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);
}

TEST(LionTest, AllReplicasExecute) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.seemore(i)->last_executed(),
              cluster.seemore(0)->last_executed())
        << "replica " << i;
  }
}

TEST(LionTest, ToleratesCrashAndByzantineBudget) {
  // c=1 crashed private + m=1 Byzantine public simultaneously: quorum
  // 2m+c+1 = 4 of the remaining 4 honest nodes is exactly reachable.
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  cluster.Crash(1);                         // private backup
  cluster.SetByzantine(5, kByzWrongVotes);  // public node
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(LionTest, SilentByzantinePublic) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  cluster.SetByzantine(4, kByzSilent);
  const uint64_t completed = RunBurst(cluster, 4, Millis(250));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(LionTest, PrimaryCrashViewChange) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  EXPECT_TRUE(cluster.seemore(0)->IsPrimary());

  cluster.Crash(0);
  auto after = SubmitAndWait(cluster, client, MakePut("b", "2"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  // The new primary is the other trusted replica (v mod S).
  EXPECT_GT(cluster.seemore(1)->view(), 0u);
  EXPECT_TRUE(cluster.seemore(1)->IsPrimary());
  EXPECT_EQ(cluster.seemore(1)->mode(), SeeMoReMode::kLion);

  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(LionTest, ReplicasWithoutAMemoCompleteAViewChange) {
  // A seemore_node hosts one replica and builds no CryptoMemo, so every
  // check a memo would share computes directly; view-change validation
  // included. Same cluster as PrimaryCrashViewChange, wired by hand.
  const scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  const ClusterConfig config = spec.ResolvedConfig();
  Simulator sim(spec.seed);
  SimNetwork net(&sim, spec.net);
  const KeyStore keystore(RunKeySeed(spec.seed));
  std::vector<std::unique_ptr<ReplicaBase>> replicas;
  for (int i = 0; i < config.n(); ++i) {
    replicas.push_back(
        MakeReplica(spec, i, &net, &sim, &keystore, /*memo=*/nullptr));
  }
  ClientOptions options;
  options.retransmit_timeout = spec.client_retransmit_timeout;
  SimClient client(&net, &sim, &keystore, options, MakeReplyPolicy(config));
  const auto submit = [&](Bytes op) {
    Bytes result;
    bool done = false;
    client.SubmitOne(std::move(op), [&](const Bytes& r) {
      result = r;
      done = true;
    });
    const SimTime deadline = sim.now() + Seconds(5);
    while (!done && sim.now() < deadline && sim.Step()) {
    }
    EXPECT_TRUE(done);
    return result;
  };

  submit(MakePut("a", "1"));
  replicas[0]->Crash();
  EXPECT_EQ(ParseKvReply(submit(MakePut("b", "2"))).status, KvResult::kOk);
  const auto* next = static_cast<const SeeMoReReplica*>(replicas[1].get());
  EXPECT_GT(next->view(), 0u);
  EXPECT_TRUE(next->IsPrimary());
  EXPECT_EQ(ParseKvReply(submit(MakeGet("a"))).value, "1");
}

TEST(LionTest, ClientFallsBackToPublicQuorumOnRetransmit) {
  // The client cannot reach any private node: its request still commits
  // (publics forward it to the trusted primary) and the client completes on
  // m+1 matching public replies after retransmission (§5.1).
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  for (PrincipalId trusted : {0, 1}) {
    cluster.net().faults().CutLink(client->id(), trusted);
    cluster.net().faults().CutLink(trusted, client->id());
  }
  auto put = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(ParseKvReply(*put).status, KvResult::kOk);
  EXPECT_GT(client->retransmissions(), 0u);
  auto get = SubmitAndWait(cluster, client, MakeGet("k"), Seconds(10));
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(ParseKvReply(*get).value, "v");
}

TEST(LionTest, CheckpointCertifiedByTrustedPrimary) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  RunBurst(cluster, 4, Millis(300));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_GT(cluster.seemore(i)->stable_checkpoint(), 0u) << "replica " << i;
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(LionTest, RecoveringPublicNodeCatchesUp) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.tuning.checkpoint_period = 8;
  Cluster cluster(spec);
  cluster.Crash(4);
  RunBurst(cluster, 4, Millis(300));
  const uint64_t before = cluster.seemore(0)->last_executed();
  ASSERT_GT(before, 10u);
  cluster.Recover(4);
  RunBurst(cluster, 4, Millis(400));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  EXPECT_GT(cluster.seemore(4)->last_executed(), before);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(LionTest, LargerBudgetC2M2) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 2, 2));
  EXPECT_EQ(cluster.n(), 11);  // 2c + 3m + 1 (Fig 2(b))
  cluster.Crash(1);
  cluster.SetByzantine(6, kByzWrongVotes);
  cluster.SetByzantine(7, kByzSilent);
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 20u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(LionTest, ToleratesMessageLoss) {
  scenario::ScenarioSpec spec = SeeMoReSpec(SeeMoReMode::kLion, 1, 1);
  spec.net.drop_probability = 0.03;
  Cluster cluster(spec);
  const uint64_t completed = RunBurst(cluster, 4, Millis(400));
  EXPECT_GT(completed, 20u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
