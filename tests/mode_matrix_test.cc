// Parameterized matrix over every mode transition × seed: each of the six
// directed transitions between {Lion, Dog, Peacock} must preserve committed
// state, keep clients progressing, and leave all replicas agreeing, with
// and without a concurrent Byzantine public replica.

#include <gtest/gtest.h>

#include <tuple>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::SeeMoReSpec;
using testing::SubmitAndWait;

constexpr SeeMoReMode kModes[] = {SeeMoReMode::kLion, SeeMoReMode::kDog,
                                  SeeMoReMode::kPeacock};

class ModeMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t, bool>> {
 protected:
  SeeMoReMode From() const { return kModes[std::get<0>(GetParam())]; }
  SeeMoReMode To() const { return kModes[std::get<1>(GetParam())]; }
  uint64_t Seed() const { return std::get<2>(GetParam()); }
  bool WithByzantine() const { return std::get<3>(GetParam()); }
};

TEST_P(ModeMatrixTest, TransitionPreservesStateAndProgress) {
  if (From() == To()) GTEST_SKIP() << "self-transition";
  Cluster cluster(SeeMoReSpec(From(), 1, 1, Seed()));
  if (WithByzantine()) cluster.SetByzantine(5, kByzWrongVotes);
  SimClient* client = cluster.AddClient();

  // Commit data in the source mode.
  auto put = SubmitAndWait(cluster, client, MakePut("pre", "old-mode"),
                           Seconds(10));
  ASSERT_TRUE(put.ok()) << put.status().ToString();

  // Switch.
  SeeMoReReplica* any = cluster.seemore(0);
  const uint64_t next_view = any->view() + 1;
  const PrincipalId authority = any->SwitchAuthority(To(), next_view);
  ASSERT_TRUE(cluster.config().IsTrusted(authority));
  Status status = cluster.seemore(authority)->RequestModeSwitch(To());
  ASSERT_TRUE(status.ok()) << status.ToString();
  cluster.sim().RunUntil(cluster.sim().now() + Millis(600));

  // Every live replica adopted the target mode.
  for (int i = 0; i < cluster.n(); ++i) {
    if (WithByzantine() && i == 5) continue;  // the liar's word is worthless
    EXPECT_EQ(cluster.seemore(i)->mode(), To())
        << "replica " << i << " " << SeeMoReModeName(From()) << "->"
        << SeeMoReModeName(To());
  }

  // Old state readable, new writes commit, agreement holds.
  auto get = SubmitAndWait(cluster, client, MakeGet("pre"), Seconds(10));
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(ParseKvReply(*get).value, "old-mode");
  auto put2 =
      SubmitAndWait(cluster, client, MakePut("post", "new-mode"), Seconds(10));
  ASSERT_TRUE(put2.ok()) << put2.status().ToString();
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  Status agreement = cluster.CheckAgreement();
  EXPECT_TRUE(agreement.ok()) << agreement.ToString();
}

std::string MatrixName(
    const ::testing::TestParamInfo<std::tuple<int, int, uint64_t, bool>>&
        info) {
  static constexpr const char* kNames[] = {"Lion", "Dog", "Peacock"};
  return std::string(kNames[std::get<0>(info.param)]) + "To" +
         kNames[std::get<1>(info.param)] + "_seed" +
         std::to_string(std::get<2>(info.param)) +
         (std::get<3>(info.param) ? "_byz" : "");
}

INSTANTIATE_TEST_SUITE_P(AllTransitions, ModeMatrixTest,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 3),
                                            ::testing::Values(1u, 2u),
                                            ::testing::Bool()),
                         MatrixName);

}  // namespace
}  // namespace seemore
