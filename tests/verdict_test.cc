// scenario::CheckVerdict on hand-built ReplicaOutcomes: the one checker
// behind the simulator's report, Cluster::CheckAgreement/CheckConvergence
// and the tcp launcher.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/verdict.h"

namespace seemore {
namespace scenario {
namespace {

Digest D(const std::string& text) { return Digest::Of(text); }

/// A replica that ran to the end at frontier `last` with digest samples
/// "b<seq>" for every seq in `seqs`.
ReplicaOutcome Ran(int id, uint64_t last, const std::vector<uint64_t>& seqs) {
  ReplicaOutcome outcome;
  outcome.id = id;
  outcome.last_executed = last;
  outcome.state_digest = D("state@" + std::to_string(last));
  for (uint64_t seq : seqs) {
    outcome.digest_samples.emplace_back(seq, D("b" + std::to_string(seq)));
  }
  return outcome;
}

TEST(VerdictTest, MatchingReplicasPass) {
  const std::vector<ReplicaOutcome> outcomes = {
      Ran(0, 9, {1, 5, 9}), Ran(1, 9, {2, 5, 9}), Ran(2, 9, {3, 9})};
  const Verdict verdict = CheckVerdict(outcomes, /*check_convergence=*/true);
  EXPECT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.survival.ok());
  EXPECT_TRUE(verdict.agreement.ok());
  EXPECT_TRUE(verdict.convergence_checked);
  EXPECT_TRUE(verdict.convergence.ok());
}

TEST(VerdictTest, CatchesADisagreementAtASharedSeq) {
  std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {1, 5, 9}),
                                          Ran(1, 9, {2, 9}),
                                          Ran(2, 9, {4, 5, 9})};
  outcomes[2].digest_samples[1].second = D("forged");  // seq 5
  const Verdict verdict = CheckVerdict(outcomes, false);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.agreement.ToString(),
            "Internal: replicas 0 and 2 disagree at seq 5");
}

TEST(VerdictTest, ComparesAWholeLogAgainstSamples) {
  ExecutedDigestLog log;
  for (uint64_t seq = 3; seq <= 9; ++seq) {
    log.Append(seq, D("b" + std::to_string(seq)));
  }
  ReplicaOutcome whole;
  whole.id = 0;
  whole.last_executed = 9;
  whole.state_digest = D("state@9");
  whole.digest_log = &log;
  std::vector<ReplicaOutcome> outcomes = {whole, Ran(1, 9, {1, 4, 9})};
  EXPECT_TRUE(CheckVerdict(outcomes, true).ok());

  outcomes[1].digest_samples[1].second = D("forged");  // seq 4
  EXPECT_EQ(CheckVerdict(outcomes, true).agreement.ToString(),
            "Internal: replicas 0 and 1 disagree at seq 4");
}

TEST(VerdictTest, ByzantineReplicaIsExcludedFromBothChecks) {
  std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {5, 9}), Ran(1, 9, {5, 9}),
                                          Ran(2, 4, {5})};
  outcomes[2].digest_samples[0].second = D("lie");
  outcomes[2].byzantine = true;
  const Verdict verdict = CheckVerdict(outcomes, true);
  EXPECT_TRUE(verdict.agreement.ok()) << verdict.agreement.ToString();
  EXPECT_TRUE(verdict.convergence.ok()) << verdict.convergence.ToString();

  outcomes[2].byzantine = false;
  const Verdict honest = CheckVerdict(outcomes, true);
  EXPECT_FALSE(honest.agreement.ok());
  EXPECT_FALSE(honest.convergence.ok());
}

TEST(VerdictTest, ScheduleKilledReplicaIsExcusedFromConvergenceOnly) {
  std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {5, 9}), Ran(1, 9, {5, 9}),
                                          Ran(2, 5, {5})};
  outcomes[2].end = ReplicaEnd::kKilled;
  EXPECT_TRUE(CheckVerdict(outcomes, true).ok());

  // Its digests still count toward agreement.
  outcomes[2].digest_samples[0].second = D("forged");
  EXPECT_FALSE(CheckVerdict(outcomes, true).agreement.ok());
}

TEST(VerdictTest, ReplicaThatDiedOnItsOwnFailsTheRun) {
  std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {9}), Ran(1, 9, {9}),
                                          Ran(2, 0, {}), Ran(3, 0, {})};
  outcomes[2].end = ReplicaEnd::kDied;
  outcomes[2].death = "killed by signal 6";
  outcomes[3].end = ReplicaEnd::kDied;
  outcomes[3].death = "left no report";
  const Verdict verdict = CheckVerdict(outcomes, true);
  EXPECT_TRUE(verdict.agreement.ok());
  EXPECT_TRUE(verdict.convergence.ok());  // not excused: failed, see below
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.survival.ToString(),
            "Internal: replica 2 died on its own (killed by signal 6); "
            "replica 3 died on its own (left no report)");

  // The verdict fails even when convergence is not requested.
  EXPECT_FALSE(CheckVerdict(outcomes, false).ok());
}

TEST(VerdictTest, FrontierMismatchFailsConvergence) {
  const std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {9}), Ran(1, 9, {9}),
                                                Ran(2, 7, {})};
  const Verdict verdict = CheckVerdict(outcomes, true);
  EXPECT_TRUE(verdict.agreement.ok());
  EXPECT_EQ(verdict.convergence.ToString(),
            "Internal: replica 2 executed 7, expected 9");
  EXPECT_FALSE(verdict.ok());
  // Unrequested, the same mismatch is not a failure.
  EXPECT_TRUE(CheckVerdict(outcomes, false).ok());
}

TEST(VerdictTest, StateDigestMismatchFailsConvergence) {
  std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {9}), Ran(1, 9, {9})};
  outcomes[1].state_digest = D("other state");
  EXPECT_EQ(CheckVerdict(outcomes, true).convergence.ToString(),
            "Internal: replica 1 state digest diverged");
}

TEST(VerdictTest, JsonNamesSurvivalOnlyWhenItFailed) {
  std::vector<ReplicaOutcome> outcomes = {Ran(0, 9, {9})};
  Json passed = Json::Object();
  CheckVerdict(outcomes, false).AppendJson(passed);
  EXPECT_EQ(passed.Find("survival"), nullptr);
  EXPECT_TRUE(passed.Find("ok")->AsBool());

  outcomes[0].end = ReplicaEnd::kDied;
  outcomes[0].death = "exited with status 1";
  Json failed = Json::Object();
  CheckVerdict(outcomes, false).AppendJson(failed);
  ASSERT_NE(failed.Find("survival"), nullptr);
  EXPECT_FALSE(failed.Find("ok")->AsBool());
}

}  // namespace
}  // namespace scenario
}  // namespace seemore
