// Fixed-seed golden test for the simulation engine.
//
// Runs a canned SeeMoRe scenario (drops + duplicates on, checkpoints
// crossing, both Lion and Peacock) and asserts the full observable outcome
// — executed event count, committed/executed totals, network counters and
// the exact commit sequence — against values captured from the seed engine
// (commit e32ed6a, before the zero-copy/pooled-heap/digest-memo rework).
//
// This is the contract the perf work must honour: payload sharing, the
// pooled event heap, lazy cancellation and the digest/verify memo may only
// change *host* CPU time. If any of them leaks into simulated time (e.g. a
// memo skipping a Charge(), or the heap reordering equal-time events), these
// numbers shift and this test fails. The second run in each case replays the
// scenario with the process-wide memo already warm, pinning down that cache
// hits and misses are observationally identical.
//
// The remaining protocols (Dog, PBFT, S-UpRight, Paxos) are pinned by a
// second scenario family: one backup is isolated for well over two
// checkpoint periods and then healed, so each run crosses stable
// checkpoints, log reclamation and a state transfer. Their constants were
// captured before the checkpoint and state-transfer flow moved into the
// shared consensus core, which had to leave them bit-identical.
//
// A third family pins view changes for every protocol and mode: the
// primary crashes under load, and in the cascade the next view's primary
// crashes before that view can start, so the view change escalates past
// it. One run switches Lion -> Peacock -> Lion. These constants were
// captured before the view-change flow moved into the shared consensus
// core, which had to leave them bit-identical too.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::ViewOf;

struct GoldenSnapshot {
  uint64_t executed_events;
  uint64_t total_executed;
  uint64_t batches_committed;
  uint64_t messages_handled;
  uint64_t net_messages;
  uint64_t net_bytes;
  uint64_t net_dropped;
  std::string commit_chain;
};

/// The canned engine tuning. Any change here invalidates the golden
/// constants — capture new ones from a trusted engine build before editing.
/// Pipeline 8 and the 20 ms view-change timeout are the tuning the goldens
/// were captured with.
scenario::ScenarioBuilder GoldenBuilder(uint64_t seed) {
  scenario::ScenarioBuilder builder;
  builder.Batching(/*batch_max=*/32, /*pipeline_max=*/8)
      .CheckpointPeriod(64)
      .ViewChangeTimeout(Millis(20))
      .Seed(seed)
      .Drop(0.01)
      .Duplicate(0.01);
  return builder;
}

scenario::ScenarioSpec SeeMoReGoldenSpec(SeeMoReMode mode, uint64_t seed) {
  return GoldenBuilder(seed)
      .SeeMoRe(mode, /*c=*/1, /*m=*/1)
      .CloudSizes(/*s=*/2, /*p=*/4)
      .spec();
}

/// The state-transfer cases: a checkpoint every 16 seqs, and no random
/// drops, so the isolation below is the one fault that makes a replica lag
/// (duplicates stay on).
scenario::ScenarioBuilder StateTransferBuilder(uint64_t seed) {
  scenario::ScenarioBuilder builder = GoldenBuilder(seed);
  builder.CheckpointPeriod(16).Drop(0);
  return builder;
}

/// Backup `victim` is cut off from every replica over [kIsolateAt, kHealAt):
/// well over two checkpoint periods of progress, so after the heal it must
/// catch up by state transfer.
constexpr SimTime kIsolateAt = Millis(100);
constexpr SimTime kHealAt = Millis(350);

void SetIsolated(Cluster& cluster, int victim, bool isolated) {
  FaultPlane& faults = cluster.net().faults();
  for (int i = 0; i < cluster.n(); ++i) {
    if (i == victim) continue;
    if (isolated) {
      faults.CutLink(victim, i);
      faults.CutLink(i, victim);
    } else {
      faults.RestoreLink(victim, i);
      faults.RestoreLink(i, victim);
    }
  }
}

/// One scheduled action of a run: `apply` runs at virtual time `at`.
struct Step {
  SimTime at;
  std::function<void(Cluster&)> apply;
};

/// Runs `spec` (6 KV clients for 600 ms, then 300 ms of drain), applying
/// `steps` in order at their times, then `check` on the final cluster.
GoldenSnapshot RunSteps(const scenario::ScenarioSpec& spec,
                        const std::vector<Step>& steps,
                        const std::function<void(Cluster&)>& check) {
  Cluster cluster(spec);
  for (int i = 0; i < 6; ++i) cluster.AddClient();
  OpFactory ops = KvWorkload(99, 128, 0.5);
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Start(ops);
  for (const Step& step : steps) {
    cluster.sim().RunUntil(step.at);
    step.apply(cluster);
  }
  cluster.sim().RunUntil(Millis(600));
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(Millis(900));
  EXPECT_EQ(cluster.sim().now(), Millis(900));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  check(cluster);

  GoldenSnapshot snap;
  snap.executed_events = cluster.sim().executed_events();
  snap.total_executed = cluster.TotalExecuted();
  snap.batches_committed = 0;
  snap.messages_handled = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    snap.batches_committed += cluster.replica(i)->stats().batches_committed;
    snap.messages_handled += cluster.replica(i)->stats().messages_handled;
  }
  snap.net_messages = cluster.net().counters().messages;
  snap.net_bytes = cluster.net().counters().bytes;
  snap.net_dropped = cluster.net().counters().dropped;

  // Fold replica 0's per-sequence executed digests into one chain: the
  // commit *order*, not just the final state.
  Digest chain;
  const auto& digests = cluster.replica(0)->exec().executed_digests();
  for (uint64_t seq = digests.floor(); !digests.empty() && seq <= digests.ceil();
       ++seq) {
    Encoder enc;
    enc.PutRaw(chain.data(), Digest::kSize);
    enc.PutU64(seq);
    enc.PutRaw(digests.at(seq).data(), Digest::kSize);
    chain = Digest::Of(enc.bytes());
  }
  snap.commit_chain = chain.ToHex();
  return snap;
}

/// Runs `spec` undisturbed or, with a `victim`, with that backup isolated
/// and healed as above; the victim must then have installed a transferred
/// snapshot.
GoldenSnapshot RunScenario(const scenario::ScenarioSpec& spec,
                           int victim = -1) {
  if (victim < 0) return RunSteps(spec, {}, [](Cluster&) {});
  return RunSteps(
      spec,
      {{kIsolateAt, [victim](Cluster& c) { SetIsolated(c, victim, true); }},
       {kHealAt, [victim](Cluster& c) { SetIsolated(c, victim, false); }}},
      [victim](Cluster& cluster) {
        // The victim restored a snapshot: its digest trail restarts above
        // it.
        const ReplicaBase& lagger = *cluster.replica(victim);
        EXPECT_GT(lagger.stats().state_transfers, 0u);
        EXPECT_GT(lagger.exec().executed_digests().floor(), 1u);
      });
}

/// The view-change cases: the primary of view 0 crashes at kCrashAt. With a
/// `next_primary`, that replica (the primary of view 1) crashes too, before
/// any backup suspects the first, so view 1 can never start and the view
/// change must escalate to view 2. Every surviving replica must have
/// completed a view change into view `min_view` or later.
constexpr SimTime kCrashAt = Millis(100);
constexpr SimTime kCascadeAt = Millis(105);

GoldenSnapshot RunPrimaryCrash(const scenario::ScenarioSpec& spec,
                               int primary, int next_primary = -1) {
  std::vector<Step> steps = {
      {kCrashAt, [primary](Cluster& c) { c.Crash(primary); }}};
  if (next_primary >= 0) {
    steps.push_back(
        {kCascadeAt, [next_primary](Cluster& c) { c.Crash(next_primary); }});
  }
  const uint64_t min_view = next_primary >= 0 ? 2 : 1;
  return RunSteps(spec, steps, [min_view](Cluster& cluster) {
    for (int i = 0; i < cluster.n(); ++i) {
      if (cluster.replica(i)->crashed()) continue;
      EXPECT_GE(ViewOf(cluster, i), min_view) << "replica " << i;
      EXPECT_GE(cluster.replica(i)->stats().view_changes_completed, 1u)
          << "replica " << i;
    }
  });
}

/// SeeMoRe at the smallest hybrid size (c = m = 1, S = 2, P = 4), or with
/// room for two crashes where the cascade needs it: c = 2 (S = 3) for the
/// trusted primaries of Lion and Dog, m = 2 (P = 7) for Peacock's public
/// primaries.
scenario::ScenarioSpec SeeMoReCrashSpec(SeeMoReMode mode, uint64_t seed,
                                        bool cascade) {
  const bool peacock = mode == SeeMoReMode::kPeacock;
  const int c = cascade && !peacock ? 2 : 1;
  const int m = cascade && peacock ? 2 : 1;
  const int s = c + 1;
  return StateTransferBuilder(seed)
      .SeeMoRe(mode, c, m)
      .CloudSizes(s, HybridNetworkSize(m, c) - s)
      .spec();
}

void ExpectGolden(const GoldenSnapshot& snap, const GoldenSnapshot& golden) {
  EXPECT_EQ(snap.executed_events, golden.executed_events);
  EXPECT_EQ(snap.total_executed, golden.total_executed);
  EXPECT_EQ(snap.batches_committed, golden.batches_committed);
  EXPECT_EQ(snap.messages_handled, golden.messages_handled);
  EXPECT_EQ(snap.net_messages, golden.net_messages);
  EXPECT_EQ(snap.net_bytes, golden.net_bytes);
  EXPECT_EQ(snap.net_dropped, golden.net_dropped);
  EXPECT_EQ(snap.commit_chain, golden.commit_chain);
}

TEST(EngineDeterminismTest, LionMatchesSeedEngineGolden) {
  const GoldenSnapshot golden{
      98399,    9477,  13397, 48000, 50311, 5030561, 475,
      "b8196895f8b1696a7f076954676a2c8e158a27176d9dd902fefdfd3d5321a02d"};
  ExpectGolden(RunScenario(SeeMoReGoldenSpec(SeeMoReMode::kLion, 42)), golden);
  // Replay with the process-wide digest/verify memo warm: bit-identical.
  ExpectGolden(RunScenario(SeeMoReGoldenSpec(SeeMoReMode::kLion, 42)), golden);
}

TEST(EngineDeterminismTest, PeacockMatchesSeedEngineGolden) {
  // Re-captured when NEW-VIEW relay (kSmNewViewRequest) landed, and again
  // when the NEW-VIEW header signature grew to cover the full entry sets
  // (EntrySetDigest: extra hash/sign charges) and relay responses gained a
  // per-peer rate limit. Both shifted the cost/traffic counters; the
  // semantic columns (total_executed, batches_committed, commit_chain)
  // stayed bit-identical to the seed engine throughout.
  const GoldenSnapshot golden{
      61279,    1186,  1199, 30209, 31013, 7025251, 323,
      "eae82934affc498f3ac761cd54d283e50230cf0742dc83ebb66f5642f14fb76d"};
  ExpectGolden(RunScenario(SeeMoReGoldenSpec(SeeMoReMode::kPeacock, 1337)),
               golden);
  ExpectGolden(RunScenario(SeeMoReGoldenSpec(SeeMoReMode::kPeacock, 1337)),
               golden);
}

TEST(EngineDeterminismTest, DogStateTransferGolden) {
  const GoldenSnapshot golden{
      114112,   8537,  8537,  54424, 64156, 5691755, 5086,
      "08dca246e7f3d30593fcf90191198edad27f8455bff55629d3860c4c0e4b5ede"};
  const scenario::ScenarioSpec spec = StateTransferBuilder(7)
                                          .SeeMoRe(SeeMoReMode::kDog, 1, 1)
                                          .CloudSizes(/*s=*/2, /*p=*/4)
                                          .spec();
  ExpectGolden(RunScenario(spec, /*victim=*/5), golden);
}

TEST(EngineDeterminismTest, PbftStateTransferGolden) {
  const GoldenSnapshot golden{
      73612,    5112,  5112,  34223, 43326, 3714261, 4360,
      "5c0863ba1a019c3f46ca53763a1f2e0fa3b2f77b407320d8a9564d83471cff91"};
  const scenario::ScenarioSpec spec =
      StateTransferBuilder(11).Bft(/*f=*/1).spec();
  ExpectGolden(RunScenario(spec, /*victim=*/3), golden);
}

TEST(EngineDeterminismTest, SUpRightStateTransferGolden) {
  const GoldenSnapshot golden{
      120481,   5355,  5355,  57537, 66957, 5740891, 4621,
      "391b33d2f7b862c337f7d8dcd492411877b224261b7c59272f3a6f8cc0227809"};
  const scenario::ScenarioSpec spec = StateTransferBuilder(13)
                                          .SUpRight(/*c=*/1, /*m=*/1)
                                          .CloudSizes(/*s=*/2, /*p=*/4)
                                          .spec();
  ExpectGolden(RunScenario(spec, /*victim=*/5), golden);
}

TEST(EngineDeterminismTest, PaxosStateTransferGolden) {
  const GoldenSnapshot golden{
      128534,   18640, 18800, 60462, 74020, 4412474, 6634,
      "8299be99fd3973715a82f4543ee7b16b6131996a67efccf7149d1e3838565745"};
  const scenario::ScenarioSpec spec =
      StateTransferBuilder(17).Cft(/*f=*/1).spec();
  ExpectGolden(RunScenario(spec, /*victim=*/2), golden);
}

TEST(EngineDeterminismTest, LionPrimaryCrashGolden) {
  const GoldenSnapshot golden{
      142667, 19766, 19766, 69388, 82304, 8095608, 9718,
      "b898d847992b6822105df7bf0dd5924f052d680e221852449825a46b1de93cd7"};
  ExpectGolden(RunPrimaryCrash(SeeMoReCrashSpec(SeeMoReMode::kLion, 21, false),
                               /*primary=*/0),
               golden);
}

TEST(EngineDeterminismTest, LionCascadingCrashGolden) {
  const GoldenSnapshot golden{
      151200, 20388, 20388, 73967, 92530, 9482459, 16046,
      "fb0e8a6c5cd3b62b1bf0a88f106d42fd9b9ce5fb1fa44fd014d02c005f644670"};
  ExpectGolden(RunPrimaryCrash(SeeMoReCrashSpec(SeeMoReMode::kLion, 22, true),
                               /*primary=*/0, /*next_primary=*/1),
               golden);
}

TEST(EngineDeterminismTest, DogPrimaryCrashGolden) {
  const GoldenSnapshot golden{
      100135, 6308, 6308, 47607, 57134, 5027997, 5121,
      "ab61ed5aac7e2be6739f1017f1cc1aaec1e3ffa9b12a41c89abdd4d054827680"};
  ExpectGolden(RunPrimaryCrash(SeeMoReCrashSpec(SeeMoReMode::kDog, 23, false),
                               /*primary=*/0),
               golden);
}

TEST(EngineDeterminismTest, DogCascadingCrashGolden) {
  const GoldenSnapshot golden{
      98748, 6642, 6642, 47277, 59269, 5422717, 8373,
      "17cffb41e5948a7ccd47a8b9d1532ee684b3470749a863159453cebe7adacff2"};
  ExpectGolden(RunPrimaryCrash(SeeMoReCrashSpec(SeeMoReMode::kDog, 24, true),
                               /*primary=*/0, /*next_primary=*/1),
               golden);
}

TEST(EngineDeterminismTest, PeacockPrimaryCrashGolden) {
  // Peacock's primary of view v is public replica S + v mod P.
  const GoldenSnapshot golden{
      82516, 7579, 7579, 38892, 52111, 4603340, 8984,
      "374ffef2d10b4c43db49fd7e68ab9ccf53063f3db377787e856af2e9d1673377"};
  ExpectGolden(
      RunPrimaryCrash(SeeMoReCrashSpec(SeeMoReMode::kPeacock, 25, false),
                      /*primary=*/2),
      golden);
}

TEST(EngineDeterminismTest, PeacockCascadingCrashGolden) {
  const GoldenSnapshot golden{
      102061, 5148, 5148, 49078, 65435, 5856946, 13063,
      "67c78113b14dc283c0c271723164d22f0d1bf5f71b52b2e2ec77d968a184ff99"};
  ExpectGolden(
      RunPrimaryCrash(SeeMoReCrashSpec(SeeMoReMode::kPeacock, 26, true),
                      /*primary=*/2, /*next_primary=*/3),
      golden);
}

TEST(EngineDeterminismTest, PbftPrimaryCrashGolden) {
  const GoldenSnapshot golden{
      56555, 4612, 4612, 25942, 39308, 3382648, 9008,
      "6204d35f2c5206dcd36852231dc1117c1815ed89fad1218d221a76eddf621f55"};
  ExpectGolden(RunPrimaryCrash(StateTransferBuilder(27).Bft(1).spec(),
                               /*primary=*/0),
               golden);
}

TEST(EngineDeterminismTest, PbftCascadingCrashGolden) {
  const GoldenSnapshot golden{
      82044, 3741, 3741, 39100, 55354, 4864161, 12874,
      "853679a37acce328f5f2f2fb3dbc4eaed88dc33fc33898ad5141173502a25ecb"};
  ExpectGolden(RunPrimaryCrash(StateTransferBuilder(28).Bft(2).spec(),
                               /*primary=*/0, /*next_primary=*/1),
               golden);
}

TEST(EngineDeterminismTest, SUpRightPrimaryCrashGolden) {
  const GoldenSnapshot golden{
      99900, 4820, 4820, 47503, 60822, 5340688, 8978,
      "8220979f325695c345bd09a31b9ef5c1c79f68cfb1f9e74f124cd2978e8ba583"};
  const scenario::ScenarioSpec spec = StateTransferBuilder(29)
                                          .SUpRight(/*c=*/1, /*m=*/1)
                                          .CloudSizes(/*s=*/2, /*p=*/4)
                                          .spec();
  ExpectGolden(RunPrimaryCrash(spec, /*primary=*/0), golden);
}

TEST(EngineDeterminismTest, SUpRightCascadingCrashGolden) {
  // Two crashes stay within S-UpRight's c + m budget: 4 of 6 replicas live
  // are still a 2m+c+1 quorum.
  const GoldenSnapshot golden{
      65545, 3678, 3678, 30896, 47274, 4269888, 12957,
      "927ea4d545504001ebf36ab4862878b5c2c9a037f57c5aeaea78aaf9382c2919"};
  const scenario::ScenarioSpec spec = StateTransferBuilder(30)
                                          .SUpRight(/*c=*/1, /*m=*/1)
                                          .CloudSizes(/*s=*/2, /*p=*/4)
                                          .spec();
  ExpectGolden(RunPrimaryCrash(spec, /*primary=*/0, /*next_primary=*/1),
               golden);
}

TEST(EngineDeterminismTest, PaxosPrimaryCrashGolden) {
  const GoldenSnapshot golden{
      89583, 15030, 15030, 41301, 65356, 3897964, 17610,
      "f7fab160f02b483b34f29b12c167887e20396760641ee2850b539a5fb401e504"};
  ExpectGolden(RunPrimaryCrash(StateTransferBuilder(31).Cft(1).spec(),
                               /*primary=*/0),
               golden);
}

TEST(EngineDeterminismTest, PaxosCascadingCrashGolden) {
  const GoldenSnapshot golden{
      147953, 21300, 21300, 70789, 108746, 6411337, 32338,
      "44ed47f7f20b383f755de45e5e6e3d2ecf45b6e5ec710ee4327187fb1b3d09e8"};
  ExpectGolden(RunPrimaryCrash(StateTransferBuilder(32).Cft(2).spec(),
                               /*primary=*/0, /*next_primary=*/1),
               golden);
}

TEST(EngineDeterminismTest, LionPeacockLionSwitchGolden) {
  // The switch goes through each target mode's trusted authority for the
  // next view (Peacock: the transferer; Lion: the trusted primary).
  const GoldenSnapshot golden{
      137138, 16308, 16308, 66556, 69834, 6650521, 0,
      "4b70514b64865ad1f25417793475c4160e0301ef12aad72e2c5bf00309ae13ff"};
  const scenario::ScenarioSpec spec =
      SeeMoReCrashSpec(SeeMoReMode::kLion, 33, false);
  const auto switch_to = [](SeeMoReMode mode) {
    return [mode](Cluster& c) {
      const SeeMoReReplica& any = *c.seemore(0);
      const PrincipalId authority = any.SwitchAuthority(mode, any.view() + 1);
      EXPECT_TRUE(c.seemore(authority)->RequestModeSwitch(mode).ok());
    };
  };
  ExpectGolden(
      RunSteps(spec,
               {{Millis(150), switch_to(SeeMoReMode::kPeacock)},
                {Millis(350), switch_to(SeeMoReMode::kLion)}},
               [](Cluster& cluster) {
                 for (int i = 0; i < cluster.n(); ++i) {
                   EXPECT_EQ(cluster.seemore(i)->mode(), SeeMoReMode::kLion);
                   EXPECT_EQ(cluster.replica(i)->stats().mode_changes, 2u);
                 }
               }),
      golden);
}

}  // namespace
}  // namespace seemore
