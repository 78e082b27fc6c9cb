// scenario::RunScenario behaviour: fixed-seed reproducibility (the same
// spec must produce a bit-identical ScenarioReport run-to-run), schedule
// execution (crash/switch/partition effects actually land), sweep
// semantics, hooks, and the engine's rejection of invalid specs.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "scenario/builder.h"
#include "scenario/engine.h"
#include "scenario/registry.h"

namespace seemore {
namespace scenario {
namespace {

/// Small but non-trivial run: Lion base case, a KV workload, one primary
/// crash mid-measurement. Finishes in well under a second of host time.
ScenarioSpec SmallScenario() {
  ScenarioBuilder builder;
  builder.Name("golden-small")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(1234)
      .Clients(8)
      .Kv(64, 0.5)
      .CrashPrimaryAt(Millis(80))
      .Warmup(Millis(40))
      .Measure(Millis(160))
      .Drain(Millis(100));
  return builder.spec();
}

TEST(ScenarioRunTest, FixedSeedReportIsBitIdenticalRunToRun) {
  Result<ScenarioReport> first = RunScenario(SmallScenario());
  Result<ScenarioReport> second = RunScenario(SmallScenario());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // The scenario did real work...
  EXPECT_GT(first->result.completed, 100u);
  EXPECT_GT(first->total_executed, 0u);
  EXPECT_TRUE(first->agreement.ok());
  ASSERT_EQ(first->events.size(), 1u);
  EXPECT_NE(first->events[0].description.find("crash"), std::string::npos);

  // ...and reproduces exactly: the golden criterion is the serialized
  // report with host time stripped (wall_time_ms is real elapsed time, the
  // one legitimately non-deterministic field), which covers completed
  // counts, latencies, per-replica stats, network counters and CPU totals
  // in one comparison.
  EXPECT_EQ(first->DeterministicJson().Dump(2),
            second->DeterministicJson().Dump(2));
}

TEST(ScenarioRunTest, GoldenCommittedCountForRegistryScenario) {
  // Pin one registry scenario's headline numbers. This is intentionally a
  // change-detector: protocol or engine changes that shift the virtual
  // timeline must update it consciously (see DESIGN.md §7).
  Result<ScenarioSpec> spec = FindScenario("fig4-primary-crash");
  ASSERT_TRUE(spec.ok());
  Result<ScenarioReport> once = RunScenario(*spec);
  Result<ScenarioReport> again = RunScenario(*spec);
  ASSERT_TRUE(once.ok());
  EXPECT_GT(once->result.completed, 500u);
  EXPECT_TRUE(once->agreement.ok());
  // The crash-primary event resolved to a concrete replica.
  ASSERT_EQ(once->events.size(), 1u);
  EXPECT_NE(once->events[0].description.find("replica"), std::string::npos);
  EXPECT_EQ(once->DeterministicJson().Dump(), again->DeterministicJson().Dump());
}

TEST(ScenarioRunTest, CrashEventActuallyCrashes) {
  ScenarioBuilder builder;
  builder.Name("crash-one")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(5)
      .Clients(4)
      .Echo(0, 0)
      .CrashAt(Millis(60), 5)
      .Warmup(Millis(20))
      .Measure(Millis(100));
  Result<ScenarioReport> report = RunScenario(builder.spec());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->replicas[5].crashed);
  EXPECT_FALSE(report->replicas[0].crashed);
  EXPECT_TRUE(report->agreement.ok());
  EXPECT_GT(report->result.completed, 0u);
}

TEST(ScenarioRunTest, SwitchEventChangesMode) {
  ScenarioBuilder builder;
  builder.Name("switch-dog")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(9)
      .Clients(4)
      .Echo(0, 0)
      .SwitchAt(Millis(60), SeeMoReMode::kDog)
      .Warmup(Millis(20))
      .Measure(Millis(200))
      .Drain(Millis(200))
      .CheckConvergence();
  SeeMoReMode final_mode = SeeMoReMode::kLion;
  ScenarioHooks hooks;
  hooks.on_finish = [&final_mode](Cluster& cluster) {
    final_mode = cluster.seemore(0)->mode();
  };
  Result<ScenarioReport> report = RunScenario(builder.spec(), hooks);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(final_mode, SeeMoReMode::kDog);
  EXPECT_TRUE(report->ok()) << report->agreement.ToString() << " / "
                            << report->convergence.ToString();
}

TEST(ScenarioRunTest, HealCloudsUndoesOnlyThePartition) {
  // partition, then cut-link 3 -> 0, then heal-clouds: the heal lifts the
  // partition and nothing else, so 3 -> 0 still drops while every other
  // cross-cloud pair delivers again (the same rule as tcp's kHeal).
  ScenarioBuilder builder;
  builder.Name("heal-keeps-cut")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(5)
      .Clients(4)
      .Echo(0, 0)
      .PartitionCloudsAt(Millis(60))
      .CutLinkAt(Millis(80), 3, 0)
      .HealCloudsAt(Millis(120))
      .Warmup(Millis(20))
      .Measure(Millis(240))
      .Drain(Millis(300))
      .CheckConvergence();
  std::vector<std::pair<int, int>> admitted;
  bool cut_still_drops = false;
  ScenarioHooks hooks;
  hooks.on_finish = [&](Cluster& cluster) {
    FaultPlane& faults = cluster.net().faults();
    const SimTime now = cluster.sim().now();
    cut_still_drops = !faults.Admit(3, 0, now).has_value();
    for (PrincipalId a : cluster.config().PrivateReplicas()) {
      for (PrincipalId b : cluster.config().PublicReplicas()) {
        if (faults.Admit(a, b, now) == SimTime{0}) admitted.emplace_back(a, b);
        if (faults.Admit(b, a, now) == SimTime{0}) admitted.emplace_back(b, a);
      }
    }
  };
  Result<ScenarioReport> report = RunScenario(builder.spec(), hooks);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->agreement.ToString() << " / "
                            << report->convergence.ToString();
  EXPECT_TRUE(cut_still_drops);
  // 2 private x 4 public replicas, both ways, minus the cut 3 -> 0.
  EXPECT_EQ(admitted.size(), 15u);
  EXPECT_EQ(std::count(admitted.begin(), admitted.end(), std::make_pair(3, 0)),
            0);
}

TEST(ScenarioRunTest, PartitionStallsAndHealRecovers) {
  // While the clouds are partitioned no Lion quorum (2m+c+1 = 4 > s = 2)
  // can form, so commits stall; after the heal the cluster catches up.
  ScenarioBuilder builder;
  builder.Name("partition-probe")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(3)
      .Clients(4)
      .Echo(0, 0)
      .PartitionCloudsAt(Millis(60))
      .HealCloudsAt(Millis(160))
      .Warmup(Millis(20))
      .Measure(Millis(280))
      .Drain(Millis(300))
      .CheckConvergence()
      .Timeline(Millis(20));
  Result<ScenarioReport> report = RunScenario(builder.spec());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->agreement.ToString() << " / "
                            << report->convergence.ToString();
  // The partitioned window (buckets [3,8) = 60-160ms) is quiet compared to
  // the post-heal window.
  const double during = report->timeline.KreqsAt(4);
  double after = 0.0;
  for (size_t b = 9; b < report->timeline.buckets.size(); ++b) {
    after = std::max(after, report->timeline.KreqsAt(b));
  }
  EXPECT_GT(after, during);
  EXPECT_GT(report->result.completed, 0u);
}

TEST(ScenarioRunTest, SweepRunsOnePointPerPopulation) {
  ScenarioBuilder builder;
  builder.Name("sweep")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(2)
      .Echo(0, 0)
      .Sweep({1, 4})
      .Warmup(Millis(20))
      .Measure(Millis(80));
  Result<std::vector<ScenarioReport>> reports = RunSweep(builder.spec());
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].result.clients, 1);
  EXPECT_EQ((*reports)[1].result.clients, 4);
  // More clients, more completions (closed loop).
  EXPECT_GT((*reports)[1].result.completed, (*reports)[0].result.completed);
}

TEST(ScenarioRunTest, RejectsInvalidSpecBeforeBuildingAnything) {
  ScenarioBuilder builder;
  builder.SeeMoRe(SeeMoReMode::kLion, 1, 1).CrashAt(Millis(10), 99);
  Result<ScenarioReport> report = RunScenario(builder.spec());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  Result<std::unique_ptr<Cluster>> cluster = MakeCluster(builder.spec());
  EXPECT_FALSE(cluster.ok());
}

TEST(ScenarioRunTest, HooksSeeLifecycle) {
  ScenarioBuilder builder;
  builder.Name("hooked")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Seed(11)
      .Clients(2)
      .Echo(0, 0)
      .CrashAt(Millis(50), 4)
      .Warmup(Millis(20))
      .Measure(Millis(60));
  int starts = 0, events = 0, finishes = 0;
  uint64_t completions = 0;
  ScenarioHooks hooks;
  hooks.on_start = [&](Cluster&) { ++starts; };
  hooks.on_event = [&](Cluster&, const ScenarioEvent& event, const Status&) {
    ++events;
    EXPECT_EQ(event.kind, EventKind::kCrash);
  };
  hooks.on_complete = [&](SimTime, SimTime) { ++completions; };
  hooks.on_finish = [&](Cluster&) { ++finishes; };
  Result<ScenarioReport> report = RunScenario(builder.spec(), hooks);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(events, 1);
  EXPECT_EQ(finishes, 1);
  EXPECT_GT(completions, 0u);
}

}  // namespace
}  // namespace scenario
}  // namespace seemore
