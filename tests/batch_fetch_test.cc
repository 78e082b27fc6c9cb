// The batch fetch behind digest-only view changes: VIEW-CHANGE and NEW-VIEW
// name batches by digest, so a replica that installs a re-proposal whose
// batch it never received asks a replica that vouched for the digest (the
// NEW-VIEW's sender first, then the VIEW-CHANGE senders that listed it).
// These runs cut the primary's proposals to one backup just before the
// primary crashes, so that backup must fetch to execute and converge.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/registry.h"
#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::BftSpec;
using testing::CftSpec;
using testing::SeeMoReSpec;
using testing::ViewOf;

const CheckpointingReplica& Core(Cluster& cluster, int i) {
  return *dynamic_cast<const CheckpointingReplica*>(cluster.replica(i));
}

/// Slots of replica `i` installed by a NEW-VIEW whose batch has not arrived.
std::vector<uint64_t> AwaitingSeqs(Cluster& cluster, int i) {
  std::vector<uint64_t> seqs;
  Core(cluster, i).instance_log().ForEachAscending(
      [&](uint64_t seq, const SlotCore& slot) {
        if (slot.awaiting_batch) seqs.push_back(seq);
      });
  return seqs;
}

/// Replica `i`'s slot at `seq`, or null.
const SlotCore* SlotAt(Cluster& cluster, int i, uint64_t seq) {
  const SlotCore* found = nullptr;
  Core(cluster, i).instance_log().ForEachAscending(
      [&](uint64_t s, const SlotCore& slot) {
        if (s == seq) found = &slot;
      });
  return found;
}

uint64_t EquivocationsDetected(Cluster& cluster) {
  uint64_t total = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    total += cluster.replica(i)->stats().equivocations_detected;
  }
  return total;
}

struct FetchCase {
  std::string name;
  scenario::ScenarioSpec spec;
  int primary;  // of view 0
  int backup;   // loses the primary's last proposals
  uint8_t batch_response_tag;
};

std::vector<FetchCase> Cases() {
  return {
      {"Lion", SeeMoReSpec(SeeMoReMode::kLion, 1, 1, 3), 0, 3,
       kSmBatchResponse},
      {"Dog", SeeMoReSpec(SeeMoReMode::kDog, 1, 1, 3), 0, 3,
       kSmBatchResponse},
      // Peacock's primary of view 0 is public replica S + 0 = 2.
      {"Peacock", SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1, 3), 2, 4,
       kSmBatchResponse},
      {"Pbft", BftSpec(1, 3), 0, 2, kPbftBatchResponse},
      {"Paxos", CftSpec(1, 3), 0, 2, kPaxBatchResponse},
  };
}

class BatchFetchTest : public ::testing::TestWithParam<FetchCase> {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(GetParam().spec);
    for (int i = 0; i < 8; ++i) {
      cluster_->AddClient()->Start(KvWorkload(300 + i, 64, 0.5));
    }
  }

  /// Load for 60 ms, then the primary's frames stop reaching the backup
  /// and, 3 ms later, the primary crashes.
  void CutThenCrashPrimary() {
    const FetchCase& c = GetParam();
    cluster_->sim().RunUntil(Millis(60));
    cluster_->net().faults().CutLink(c.primary, c.backup);
    cluster_->sim().RunUntil(Millis(63));
    cluster_->Crash(c.primary);
  }

  /// Steps until the backup holds a re-proposal whose batch it lacks.
  bool RunUntilAwaiting(SimTime deadline) {
    const int backup = GetParam().backup;
    while (AwaitingSeqs(*cluster_, backup).empty()) {
      if (cluster_->sim().now() > deadline || !cluster_->sim().Step()) {
        return false;
      }
    }
    return true;
  }

  /// Stops the clients, drains, and checks agreement and that every live
  /// replica reached the same frontier.
  void ExpectConverged() {
    for (int i = 0; i < cluster_->num_clients(); ++i) {
      cluster_->client(i)->Stop();
    }
    cluster_->sim().RunUntil(cluster_->sim().now() + Millis(400));
    const Status agreement = cluster_->CheckAgreement();
    EXPECT_TRUE(agreement.ok()) << agreement.ToString();
    std::vector<int> live;
    for (int i = 0; i < cluster_->n(); ++i) {
      if (!cluster_->replica(i)->crashed()) live.push_back(i);
    }
    const Status converged = cluster_->CheckConvergence(live);
    EXPECT_TRUE(converged.ok()) << converged.ToString();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_P(BatchFetchTest, BackupFetchesWhatItMissedThenExecutesAndConverges) {
  const FetchCase& c = GetParam();
  CutThenCrashPrimary();
  const uint64_t frontier_at_crash =
      Core(*cluster_, c.backup).last_executed();
  ASSERT_TRUE(RunUntilAwaiting(Millis(400)))
      << "the backup never installed a re-proposal it lacked";
  cluster_->sim().RunUntil(Millis(500));

  const ReplicaStats& stats = cluster_->replica(c.backup)->stats();
  EXPECT_GE(stats.batch_fetches, 1u);
  EXPECT_GE(stats.batches_fetched, 1u);
  EXPECT_EQ(stats.batch_fetch_rejects, 0u);
  EXPECT_TRUE(AwaitingSeqs(*cluster_, c.backup).empty());
  EXPECT_GE(ViewOf(*cluster_, c.backup), 1u);
  // Service resumed past the crash, the backup included.
  EXPECT_GT(Core(*cluster_, c.backup).last_executed(), frontier_at_crash + 8);
  ExpectConverged();
}

TEST_P(BatchFetchTest, ReplyThatDoesNotHashToTheDigestIsDroppedAndCounted) {
  const FetchCase& c = GetParam();
  CutThenCrashPrimary();
  ASSERT_TRUE(RunUntilAwaiting(Millis(400)));
  // Before any honest answer can arrive, a voucher "answers" every missing
  // seq with bytes that are a well-formed batch but not the named one.
  BatchResponseMsg forged;
  for (uint64_t seq : AwaitingSeqs(*cluster_, c.backup)) {
    forged.batches.push_back({seq, Batch::Noop().Encode()});
  }
  const int voucher = c.primary == 0 ? 1 : 0;
  cluster_->net().Send(voucher, c.backup,
                       forged.ToMessage(c.batch_response_tag));
  cluster_->sim().RunUntil(cluster_->sim().now() + Millis(2));

  const ReplicaStats& stats = cluster_->replica(c.backup)->stats();
  EXPECT_EQ(stats.batch_fetch_rejects, forged.batches.size());
  // The honest answer still lands: the backup executes and converges.
  cluster_->sim().RunUntil(Millis(500));
  EXPECT_GE(stats.batches_fetched, 1u);
  EXPECT_TRUE(AwaitingSeqs(*cluster_, c.backup).empty());
  ExpectConverged();
}

TEST_P(BatchFetchTest, RequestsStayWithinTheRateLimit) {
  const FetchCase& c = GetParam();
  CutThenCrashPrimary();
  ASSERT_TRUE(RunUntilAwaiting(Millis(400)));
  // Nothing reaches the backup for 200 ms, so no answer does either: it
  // keeps asking, each voucher at most once per fetch interval.
  FaultPlane& faults = cluster_->net().faults();
  for (int i = 0; i < cluster_->n(); ++i) {
    if (i != c.backup) faults.CutLink(i, c.backup);
  }
  const ReplicaStats& stats = cluster_->replica(c.backup)->stats();
  const uint64_t before = stats.batch_fetches;
  const SimTime window = Millis(200);
  cluster_->sim().RunUntil(cluster_->sim().now() + window);
  const uint64_t asked = stats.batch_fetches - before;
  const uint64_t rounds = window / Millis(20) + 1;
  const uint64_t peers = static_cast<uint64_t>(cluster_->n() - 1);
  EXPECT_GE(asked, 2u) << "the fetch gave up";
  EXPECT_LE(asked, peers * rounds);
  EXPECT_EQ(stats.batches_fetched, 0u);

  // Healed, the backup gets the batches, or (where the others went on
  // without it) a snapshot past them.
  for (int i = 0; i < cluster_->n(); ++i) {
    if (i != c.backup) faults.RestoreLink(i, c.backup);
  }
  cluster_->sim().RunUntil(cluster_->sim().now() + Millis(300));
  EXPECT_GE(stats.batches_fetched + stats.state_transfers, 1u);
  EXPECT_TRUE(AwaitingSeqs(*cluster_, c.backup).empty());
  const Status agreement = cluster_->CheckAgreement();
  EXPECT_TRUE(agreement.ok()) << agreement.ToString();
}

TEST_P(BatchFetchTest, ConflictingProposalForAnAwaitingSlotIsRefused) {
  const FetchCase& c = GetParam();
  CutThenCrashPrimary();
  ASSERT_TRUE(RunUntilAwaiting(Millis(400)));
  const PrincipalId primary = cluster_->replica(c.backup)->current_primary();
  if (c.spec.protocol == ProtocolKind::kCft ||
      (c.spec.protocol == ProtocolKind::kSeeMoRe &&
       cluster_->config().IsTrusted(primary))) {
    GTEST_SKIP() << "in the fault model this primary does not equivocate";
  }
  // The slot already names this view's digest and the backup has voted for
  // it. A Byzantine new primary now proposes another batch at that seq, in
  // the same view, to the backup alone.
  const uint64_t seq = AwaitingSeqs(*cluster_, c.backup).front();
  const Digest named = SlotAt(*cluster_, c.backup, seq)->digest;
  const uint64_t view = ViewOf(*cluster_, c.backup);
  const Signer signer(primary, cluster_->keystore());
  const Bytes other = Batch::Noop().Encode();
  ASSERT_NE(Digest::Of(other), named);
  Bytes proposal;
  if (c.spec.protocol == ProtocolKind::kSeeMoRe) {
    SmPrepareMsg prepare;
    prepare.mode = static_cast<uint8_t>(cluster_->seemore(c.backup)->mode());
    prepare.view = view;
    prepare.seq = seq;
    prepare.batch = other;
    prepare.digest = Digest::Of(other);
    prepare.sig = signer.Sign(prepare.Header());
    proposal = prepare.ToMessage();
  } else {
    PbftPrePrepareMsg pre_prepare{view, seq, Digest::Of(other), Signature(),
                                  other};
    pre_prepare.sig = signer.Sign(pre_prepare.Header());
    proposal = pre_prepare.ToMessage();
  }
  // Meanwhile nothing else reaches the backup and the primary answers no
  // fetch, so the slot still awaits its batch when the proposal lands.
  FaultPlane& faults = cluster_->net().faults();
  for (int i = 0; i < cluster_->n(); ++i) {
    if (i != c.backup && i != primary) faults.CutLink(i, c.backup);
  }
  cluster_->SetByzantine(primary, kByzSilent);
  const uint64_t equivocations = EquivocationsDetected(*cluster_);
  cluster_->net().Send(primary, c.backup, proposal);
  cluster_->sim().RunUntil(cluster_->sim().now() + Millis(5));

  // Refused: the slot still names the first digest, and no one (the backup
  // included) saw the backup vote twice at that (view, seq).
  const SlotCore* slot = SlotAt(*cluster_, c.backup, seq);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->digest, named);
  EXPECT_EQ(slot->view, view);
  EXPECT_TRUE(slot->awaiting_batch);
  EXPECT_EQ(EquivocationsDetected(*cluster_), equivocations);
  cluster_->SetByzantine(primary, 0);
  for (int i = 0; i < cluster_->n(); ++i) {
    if (i != c.backup && i != primary) faults.RestoreLink(i, c.backup);
  }
  cluster_->sim().RunUntil(Millis(500));
  EXPECT_TRUE(AwaitingSeqs(*cluster_, c.backup).empty());
  ExpectConverged();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, BatchFetchTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<FetchCase>& info) {
      return info.param.name;
    });

/// Lion and PBFT with one more fault budget than the cases above, so the
/// new primary can crash too: it sends its NEW-VIEW and dies before it can
/// answer, and the backup gets the batches from a VIEW-CHANGE sender.
TEST(BatchFetchVoucherTest, FirstVoucherCrashedSecondAnswers) {
  struct Case {
    scenario::ScenarioSpec spec;
    int backup;
  };
  for (const Case& c : {Case{SeeMoReSpec(SeeMoReMode::kLion, 2, 1, 5), 5},
                        Case{BftSpec(2, 5), 3}}) {
    Cluster cluster(c.spec);
    for (int i = 0; i < 8; ++i) {
      cluster.AddClient()->Start(KvWorkload(400 + i, 64, 0.5));
    }
    cluster.sim().RunUntil(Millis(60));
    cluster.net().faults().CutLink(0, c.backup);
    cluster.sim().RunUntil(Millis(63));
    cluster.Crash(0);
    // The new primary (replica 1) crashes the moment it enters view 1: its
    // NEW-VIEW is on the wire, its answers never will be.
    while (ViewOf(cluster, 1) == 0 && cluster.sim().now() < Millis(400)) {
      ASSERT_TRUE(cluster.sim().Step());
    }
    ASSERT_EQ(ViewOf(cluster, 1), 1u);
    cluster.Crash(1);
    cluster.sim().RunUntil(Millis(700));

    const ReplicaStats& stats = cluster.replica(c.backup)->stats();
    EXPECT_GE(stats.batch_fetches, 2u);
    EXPECT_GE(stats.batches_fetched, 1u);
    EXPECT_TRUE(AwaitingSeqs(cluster, c.backup).empty());
    for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
    cluster.sim().RunUntil(Millis(1100));
    EXPECT_TRUE(cluster.CheckAgreement().ok());
    std::vector<int> live;
    for (int i = 2; i < cluster.n(); ++i) live.push_back(i);
    const Status converged = cluster.CheckConvergence(live);
    EXPECT_TRUE(converged.ok()) << converged.ToString();
  }
}

/// A view change while a batch is awaited: nothing the backup sends gets
/// out, so its fetch goes unanswered, and the new primary dies too. View
/// 2's NEW-VIEW re-proposes what the backup awaited; it installs each entry
/// with that digest's batch or awaits it again, fetches it once its links
/// are back, and converges.
TEST(BatchFetchVoucherTest, ViewChangeWhileAwaitingRefetchesAndConverges) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 2, 1, 5));
  const int backup = 5;
  for (int i = 0; i < 8; ++i) {
    cluster.AddClient()->Start(KvWorkload(600 + i, 64, 0.5));
  }
  cluster.sim().RunUntil(Millis(60));
  cluster.net().faults().CutLink(0, backup);
  cluster.sim().RunUntil(Millis(63));
  cluster.Crash(0);
  while (AwaitingSeqs(cluster, backup).empty()) {
    ASSERT_LT(cluster.sim().now(), Millis(400));
    ASSERT_TRUE(cluster.sim().Step());
  }
  const std::vector<uint64_t> awaited = AwaitingSeqs(cluster, backup);
  FaultPlane& faults = cluster.net().faults();
  for (int i = 0; i < cluster.n(); ++i) {
    if (i != backup) faults.CutLink(backup, i);
  }
  cluster.Crash(1);
  while (ViewOf(cluster, backup) < 2) {
    ASSERT_LT(cluster.sim().now(), Millis(1000));
    ASSERT_TRUE(cluster.sim().Step());
  }
  // Every slot the backup holds a batch for holds that digest's batch.
  size_t reinstalled = 0;
  for (uint64_t seq : awaited) {
    const SlotCore* slot = SlotAt(cluster, backup, seq);
    if (slot == nullptr) continue;
    ++reinstalled;
    if (slot->has_batch()) {
      EXPECT_EQ(slot->batch.ComputeDigest(), slot->digest) << "seq " << seq;
    }
  }
  EXPECT_GT(reinstalled, 0u);

  for (int i = 0; i < cluster.n(); ++i) {
    if (i != backup) faults.RestoreLink(backup, i);
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(300));
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(cluster.sim().now() + Millis(400));
  const Status agreement = cluster.CheckAgreement();
  EXPECT_TRUE(agreement.ok()) << agreement.ToString();
  std::vector<int> live;
  for (int i = 2; i < cluster.n(); ++i) live.push_back(i);
  const Status converged = cluster.CheckConvergence(live);
  EXPECT_TRUE(converged.ok()) << converged.ToString();
}

/// The NEW-VIEW authority's own uncommitted slot holds another digest at a
/// seq whose prepared digest it re-proposes: PBFT's old primary sent the
/// authority (replica 1) a different batch for the seqs it then prepared at
/// the others. The authority fetches the prepared batch before it signs and
/// keeps it next to its own, so it installs the re-proposal with its batch,
/// executes it and converges.
TEST(BatchFetchAuthorityTest, OwnSlotHoldsAnotherDigestThanItReproposes) {
  Cluster cluster(BftSpec(1, 3));
  for (int i = 0; i < 8; ++i) {
    cluster.AddClient()->Start(KvWorkload(500 + i, 64, 0.5));
  }
  cluster.sim().RunUntil(Millis(60));
  // The authority hears the old primary only through these forged
  // proposals for the next seqs it will assign, and then not at all.
  uint64_t held = 0;
  Core(cluster, 1).instance_log().ForEachAscending(
      [&](uint64_t seq, const SlotCore& slot) {
        if (slot.has_proposal()) held = std::max(held, seq);
      });
  const Signer old_primary(0, cluster.keystore());
  const Bytes noop = Batch::Noop().Encode();
  std::vector<uint64_t> forged;
  for (uint64_t seq = held + 1; seq <= held + 8; ++seq) {
    PbftPrePrepareMsg pre_prepare{0, seq, Digest::Of(noop), Signature(),
                                  noop};
    pre_prepare.sig = old_primary.Sign(pre_prepare.Header());
    cluster.net().Send(0, 1, pre_prepare.ToMessage());
    forged.push_back(seq);
  }
  cluster.net().faults().CutLink(0, 1);
  cluster.sim().RunUntil(Millis(63));
  cluster.Crash(0);

  // Seqs where the authority holds the no-op while the others prepared a
  // real batch, which the NEW-VIEW then re-proposes.
  std::vector<uint64_t> conflicting;
  for (uint64_t seq : forged) {
    const SlotCore* own = SlotAt(cluster, 1, seq);
    const SlotCore* other = SlotAt(cluster, 2, seq);
    if (own != nullptr && own->has_batch() && own->batch.IsNoop() &&
        other != nullptr && other->prepared && !other->batch.IsNoop()) {
      conflicting.push_back(seq);
    }
  }
  ASSERT_FALSE(conflicting.empty());
  while (ViewOf(cluster, 1) == 0 && cluster.sim().now() < Millis(400)) {
    ASSERT_TRUE(cluster.sim().Step());
  }
  ASSERT_EQ(ViewOf(cluster, 1), 1u);
  // It signed holding every batch it names, so it awaits none.
  EXPECT_TRUE(AwaitingSeqs(cluster, 1).empty());
  EXPECT_GE(cluster.replica(1)->stats().batches_fetched, conflicting.size());

  cluster.sim().RunUntil(Millis(300));
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(Millis(700));
  const Status agreement = cluster.CheckAgreement();
  EXPECT_TRUE(agreement.ok()) << agreement.ToString();
  const Status converged = cluster.CheckConvergence({1, 2, 3});
  EXPECT_TRUE(converged.ok()) << converged.ToString();
  for (uint64_t seq : conflicting) {
    const ExecutedDigestLog& log = cluster.replica(1)->exec().executed_digests();
    ASSERT_NE(log.Find(seq), nullptr) << "seq " << seq;
    EXPECT_NE(log.at(seq), Batch::NoopDigest()) << "seq " << seq;
  }
}

/// The size bound digest-only view changes keep: every VIEW-CHANGE or
/// NEW-VIEW frame is at most a fixed header (checkpoint certificate and
/// framing) plus 128 B per signed entry it names, however large the batches
/// behind them. CI checks the tcp reports' counters against the same bound.
constexpr uint64_t kViewChangeHeaderBytes = 4096;
constexpr uint64_t kViewChangeBytesPerEntry = 128;

TEST(ViewChangeBytesTest, CrashFarPastTheStableCheckpointStaysWithinBound) {
  // fig4-primary-crash (checkpoint period 10000) with the crash moved to
  // 800 ms, about 1300 sequences past the last stable checkpoint.
  Result<scenario::ScenarioSpec> spec =
      scenario::FindScenario("fig4-primary-crash");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->schedule.size(), 1u);
  spec->schedule[0].at = Millis(800);
  spec->plan.measure = Millis(1200);
  Result<scenario::ScenarioReport> report = scenario::RunScenario(*spec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->agreement.ok());

  uint64_t frontier = 0;
  for (const scenario::ReplicaReport& replica : report->replicas) {
    if (replica.crashed) continue;
    EXPECT_EQ(replica.view_changes_completed, 1u) << "replica " << replica.id;
    EXPECT_GT(replica.view_change_msgs_sent, 0u);
    // Each frame names an entry per sequence number since the checkpoint.
    EXPECT_GE(replica.view_change_entries_sent,
              1000 * replica.view_change_msgs_sent);
    EXPECT_LE(replica.view_change_bytes_sent,
              kViewChangeHeaderBytes * replica.view_change_msgs_sent +
                  kViewChangeBytesPerEntry * replica.view_change_entries_sent)
        << "replica " << replica.id;
    frontier = std::max(frontier, replica.last_executed);
  }
  // Service resumed: the crash came at about sequence 1300.
  EXPECT_GT(frontier, 1500u);
}

}  // namespace
}  // namespace seemore
