// Property-based sweeps (parameterized gtest): for every protocol and many
// seeds, run a randomized workload under message loss and duplication and
// check the core SMR invariants:
//   1. Agreement: no two replicas execute different batches at one seq.
//   2. Progress: clients complete requests (liveness under partial synchrony).
//   3. Durability: a value acknowledged to a client is readable afterwards.
//   4. Execution: the digest logged for every executed seq is the digest of
//      the batch committed there, in order or out of order.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::BftSpec;
using testing::CftSpec;
using testing::SeeMoReSpec;
using testing::SubmitAndWait;
using testing::SUpRightSpec;

struct ProtocolCase {
  const char* name;
  ProtocolKind kind;
  SeeMoReMode mode;  // only used for SeeMoRe
};

scenario::ScenarioSpec MakeSpec(const ProtocolCase& pc, uint64_t seed) {
  switch (pc.kind) {
    case ProtocolKind::kCft:
      return CftSpec(1, seed);
    case ProtocolKind::kBft:
      return BftSpec(1, seed);
    case ProtocolKind::kSUpRight:
      return SUpRightSpec(1, 1, seed);
    case ProtocolKind::kSeeMoRe:
      return SeeMoReSpec(pc.mode, 1, 1, seed);
  }
  return CftSpec(1, seed);
}

class ProtocolPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  static constexpr ProtocolCase kCases[] = {
      {"CFT", ProtocolKind::kCft, SeeMoReMode::kLion},
      {"BFT", ProtocolKind::kBft, SeeMoReMode::kLion},
      {"S-UpRight", ProtocolKind::kSUpRight, SeeMoReMode::kLion},
      {"SeeMoRe-Lion", ProtocolKind::kSeeMoRe, SeeMoReMode::kLion},
      {"SeeMoRe-Dog", ProtocolKind::kSeeMoRe, SeeMoReMode::kDog},
      {"SeeMoRe-Peacock", ProtocolKind::kSeeMoRe, SeeMoReMode::kPeacock},
  };

  const ProtocolCase& Case() const { return kCases[std::get<0>(GetParam())]; }
  uint64_t Seed() const { return std::get<1>(GetParam()); }
};

constexpr ProtocolCase ProtocolPropertyTest::kCases[];

/// Records every batch a replica commits, as handed to the commit funnel's
/// WAL hook (before execution), by its own recomputed digest. Storage is not
/// modelled: nothing is persisted and no CPU is charged, so attaching it
/// leaves the run unchanged.
class CommitRecorder final : public DurableStore {
 public:
  explicit CommitRecorder(const ExecutionEngine& exec) : exec_(exec) {}

  bool enabled() const override { return true; }
  void AppendCommit(uint64_t seq, const Batch& batch) override {
    if (seq > exec_.last_executed() + 1) ++out_of_order_;
    digests_.emplace(seq, batch.ComputeDigest());
  }

  const std::map<uint64_t, Digest>& digests() const { return digests_; }
  uint64_t out_of_order() const { return out_of_order_; }

 private:
  const ExecutionEngine& exec_;
  std::map<uint64_t, Digest> digests_;
  uint64_t out_of_order_ = 0;
};

TEST_P(ProtocolPropertyTest, ExecutedDigestIsTheCommittedBatchDigest) {
  // Execution logs the digest the slot agreed on instead of re-hashing the
  // batch; that is only sound if the two are always equal. Loss and
  // duplication make commits arrive out of order, so batches are buffered
  // (copied with their digest) as well as executed in place.
  scenario::ScenarioSpec spec = MakeSpec(Case(), Seed());
  spec.net.drop_probability = 0.02;
  spec.net.duplicate_probability = 0.01;
  Cluster cluster(spec);
  std::vector<std::unique_ptr<CommitRecorder>> recorders;
  for (int i = 0; i < cluster.n(); ++i) {
    recorders.push_back(
        std::make_unique<CommitRecorder>(cluster.replica(i)->exec()));
    cluster.replica(i)->AttachDurable(recorders.back().get());
  }

  testing::RunBurst(cluster, 4, Millis(300), /*seed=*/Seed() * 17 + 3);
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));

  uint64_t checked = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    const ExecutedDigestLog& executed =
        cluster.replica(i)->exec().executed_digests();
    const auto& committed = recorders[i]->digests();
    for (uint64_t seq = executed.floor();
         !executed.empty() && seq <= executed.ceil(); ++seq) {
      auto it = committed.find(seq);
      ASSERT_NE(it, committed.end())
          << Case().name << " replica " << i << " seq " << seq;
      EXPECT_EQ(executed.at(seq), it->second)
          << Case().name << " replica " << i << " seq " << seq;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u) << Case().name << " seed=" << Seed();
  uint64_t out_of_order = 0;
  for (const auto& recorder : recorders) {
    out_of_order += recorder->out_of_order();
  }
  EXPECT_GT(out_of_order, 0u)
      << Case().name << " seed=" << Seed() << ": no commit ran ahead";
}

TEST_P(ProtocolPropertyTest, AgreementAndProgressUnderLossyNetwork) {
  scenario::ScenarioSpec spec = MakeSpec(Case(), Seed());
  spec.net.drop_probability = 0.02;
  spec.net.duplicate_probability = 0.01;
  Cluster cluster(spec);

  const uint64_t completed =
      testing::RunBurst(cluster, 4, Millis(300), /*seed=*/Seed() * 31 + 7);
  cluster.sim().RunUntil(cluster.sim().now() + Millis(200));

  EXPECT_GT(completed, 10u) << Case().name << " seed=" << Seed();
  Status agreement = cluster.CheckAgreement();
  EXPECT_TRUE(agreement.ok())
      << Case().name << " seed=" << Seed() << ": " << agreement.ToString();
}

TEST_P(ProtocolPropertyTest, AcknowledgedWritesAreDurableAcrossPrimaryCrash) {
  scenario::ScenarioSpec spec = MakeSpec(Case(), Seed());
  Cluster cluster(spec);
  SimClient* client = cluster.AddClient();

  auto put = SubmitAndWait(cluster, client, MakePut("durable", "yes"));
  ASSERT_TRUE(put.ok()) << Case().name << ": " << put.status().ToString();

  // Crash the current primary/leader, whatever node that is.
  PrincipalId primary = 0;
  if (Case().kind == ProtocolKind::kSeeMoRe) {
    primary = cluster.seemore(0)->current_primary();
  }
  cluster.Crash(static_cast<int>(primary));

  auto get = SubmitAndWait(cluster, client, MakeGet("durable"), Seconds(10));
  ASSERT_TRUE(get.ok()) << Case().name << " seed=" << Seed() << ": "
                        << get.status().ToString();
  EXPECT_EQ(ParseKvReply(*get).value, "yes") << Case().name;
  EXPECT_TRUE(cluster.CheckAgreement().ok()) << Case().name;
}

TEST_P(ProtocolPropertyTest, InstanceLogOccupancyBoundedUnderSustainedLoad) {
  // Checkpointing must reclaim slots below the stable checkpoint: under
  // sustained load the live instance-log occupancy stays within a small
  // multiple of the agreement window instead of growing with total commits.
  scenario::ScenarioSpec spec = MakeSpec(Case(), Seed());
  Cluster cluster(spec);

  const size_t window =
      static_cast<size_t>(spec.tuning.checkpoint_period) * 2 +
      static_cast<size_t>(spec.tuning.pipeline_max);
  const size_t bound = 2 * window;

  auto occupancy = [&](int i) -> size_t {
    switch (Case().kind) {
      case ProtocolKind::kCft:
        return cluster.paxos(i)->log_occupancy();
      case ProtocolKind::kBft:
      case ProtocolKind::kSUpRight:
        return cluster.pbft(i)->log_occupancy();
      case ProtocolKind::kSeeMoRe:
        return cluster.seemore(i)->log_occupancy();
    }
    return 0;
  };

  OpFactory ops = KvWorkload(Seed() * 13 + 1, 64, 0.5);
  for (int i = 0; i < 4; ++i) cluster.AddClient();
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Start(ops);
  size_t max_occupancy = 0;
  const SimTime until = Millis(400);
  while (cluster.sim().now() < until && cluster.sim().Step()) {
    for (int i = 0; i < cluster.n(); ++i) {
      max_occupancy = std::max(max_occupancy, occupancy(i));
    }
  }
  for (int i = 0; i < cluster.num_clients(); ++i) cluster.client(i)->Stop();
  cluster.sim().RunUntil(until + Millis(100));

  EXPECT_LE(max_occupancy, bound)
      << Case().name << " seed=" << Seed()
      << ": instance log grew past the agreement window";
  // The run must actually cross checkpoints, or the bound proves nothing.
  uint64_t stable = 0;
  switch (Case().kind) {
    case ProtocolKind::kCft:
      stable = cluster.paxos(0)->stable_checkpoint();
      break;
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      stable = cluster.pbft(0)->stable_checkpoint();
      break;
    case ProtocolKind::kSeeMoRe:
      stable = cluster.seemore(0)->stable_checkpoint();
      break;
  }
  EXPECT_GT(stable, 0u) << Case().name
                        << ": no checkpoint ever became stable";
}

TEST_P(ProtocolPropertyTest, DeterministicGivenSeed) {
  auto run_once = [this] {
    scenario::ScenarioSpec spec = MakeSpec(Case(), Seed());
    Cluster cluster(spec);
    testing::RunBurst(cluster, 3, Millis(150), /*seed=*/99);
    uint64_t fingerprint = 0;
    for (int i = 0; i < cluster.n(); ++i) {
      fingerprint = fingerprint * 1000003 +
                    cluster.replica(i)->exec().last_executed();
    }
    return fingerprint;
  };
  EXPECT_EQ(run_once(), run_once()) << Case().name << " seed=" << Seed();
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
  static constexpr const char* kNames[] = {"CFT",  "BFT", "SUpRight",
                                           "Lion", "Dog", "Peacock"};
  return std::string(kNames[std::get<0>(info.param)]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllProtocolsManySeeds, ProtocolPropertyTest,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1u, 2u, 3u)),
                         CaseName);

}  // namespace
}  // namespace seemore
