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

/// The canned scenario. Any change here invalidates the golden constants —
/// capture new ones from a trusted engine build before editing.
GoldenSnapshot RunScenario(SeeMoReMode mode, uint64_t seed) {
  // Pipeline 8 and the 20 ms view-change timeout are the tuning the
  // goldens were captured with.
  scenario::ScenarioBuilder builder;
  builder.SeeMoRe(mode, /*c=*/1, /*m=*/1)
      .CloudSizes(/*s=*/2, /*p=*/4)
      .Batching(/*batch_max=*/32, /*pipeline_max=*/8)
      .CheckpointPeriod(64)
      .ViewChangeTimeout(Millis(20))
      .Seed(seed)
      .Drop(0.01)
      .Duplicate(0.01);
  Cluster cluster(builder.spec());
  for (int i = 0; i < 6; ++i) cluster.AddClient();
  OpFactory ops = KvWorkload(99, 128, 0.5);
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Start(ops);
  cluster.sim().RunUntil(Millis(600));
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(Millis(900));
  EXPECT_EQ(cluster.sim().now(), Millis(900));
  EXPECT_TRUE(cluster.CheckAgreement().ok());

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
  const auto& digests = cluster.seemore(0)->exec().executed_digests();
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
  ExpectGolden(RunScenario(SeeMoReMode::kLion, 42), golden);
  // Replay with the process-wide digest/verify memo warm: bit-identical.
  ExpectGolden(RunScenario(SeeMoReMode::kLion, 42), golden);
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
  ExpectGolden(RunScenario(SeeMoReMode::kPeacock, 1337), golden);
  ExpectGolden(RunScenario(SeeMoReMode::kPeacock, 1337), golden);
}

}  // namespace
}  // namespace seemore
