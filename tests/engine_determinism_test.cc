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

#include <gtest/gtest.h>

#include <string>

#include "tests/test_util.h"

namespace seemore {
namespace {

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

/// Runs `spec` (6 KV clients for 600 ms, then 300 ms of drain). With a
/// `victim`, that backup is isolated and healed as above, and the run must
/// show it installed a transferred snapshot.
GoldenSnapshot RunScenario(const scenario::ScenarioSpec& spec,
                           int victim = -1) {
  Cluster cluster(spec);
  for (int i = 0; i < 6; ++i) cluster.AddClient();
  OpFactory ops = KvWorkload(99, 128, 0.5);
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Start(ops);
  if (victim >= 0) {
    cluster.sim().RunUntil(kIsolateAt);
    SetIsolated(cluster, victim, true);
    cluster.sim().RunUntil(kHealAt);
    SetIsolated(cluster, victim, false);
  }
  cluster.sim().RunUntil(Millis(600));
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(Millis(900));
  EXPECT_EQ(cluster.sim().now(), Millis(900));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  if (victim >= 0) {
    // The victim restored a snapshot: its digest trail restarts above it.
    const ReplicaBase& lagger = *cluster.replica(victim);
    EXPECT_GT(lagger.stats().state_transfers, 0u);
    EXPECT_GT(lagger.exec().executed_digests().floor(), 1u);
  }

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

}  // namespace
}  // namespace seemore
