// Flag parsing (the FlagSet library and seemore_ctl's schedule flags, run
// as the real binary) and the multi-cloud sizing planner.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "consensus/config.h"
#include "util/flags.h"

namespace seemore {
namespace {

TEST(FlagsTest, ParsesAllForms) {
  FlagSet flags("test");
  flags.AddString("name", "default", "a string");
  flags.AddInt("count", 3, "an int");
  flags.AddDouble("rate", 0.5, "a double");
  flags.AddBool("verbose", false, "a bool");

  const char* argv[] = {"prog",          "--name=widget", "--count", "7",
                        "--rate=0.25",   "--verbose",     "extra"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetString("name"), "widget");
  EXPECT_EQ(flags.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_TRUE(flags.WasSet("name"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "extra");
}

TEST(FlagsTest, DefaultsWhenUnset) {
  FlagSet flags("test");
  flags.AddInt("count", 42, "an int");
  flags.AddBool("flag", true, "a bool");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("count"), 42);
  EXPECT_TRUE(flags.GetBool("flag"));
  EXPECT_FALSE(flags.WasSet("count"));
}

TEST(FlagsTest, RejectsUnknownAndMalformed) {
  FlagSet flags("test");
  flags.AddInt("count", 0, "an int");
  {
    const char* argv[] = {"prog", "--nope=1"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--count=abc"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--count"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
}

TEST(FlagsTest, HelpRequested) {
  FlagSet flags("test tool");
  flags.AddInt("count", 0, "an int");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage().find("--count"), std::string::npos);
}

TEST(FlagsTest, BoolExplicitFalse) {
  FlagSet flags("test");
  flags.AddBool("on", true, "a bool");
  const char* argv[] = {"prog", "--on=false"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(flags.GetBool("on"));
}

TEST(FlagsTest, RepeatedStringAccumulates) {
  FlagSet flags("test");
  flags.AddRepeatedString("switch", "", "a schedule");
  flags.AddString("name", "", "plain string");
  const char* argv[] = {"prog", "--switch=dog@150", "--switch=peacock@350",
                        "--name=a", "--name=b"};
  ASSERT_TRUE(flags.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetString("switch"), "dog@150,peacock@350");
  // Non-repeated strings keep last-wins semantics.
  EXPECT_EQ(flags.GetString("name"), "b");
}

TEST(SplitStringTest, Basics) {
  EXPECT_TRUE(SplitString("", ',').empty());
  EXPECT_EQ(SplitString("a", ','), (std::vector<std::string>{"a"}));
  EXPECT_EQ(SplitString("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(ParseInt64Test, AcceptsOnlyWholeIntegers) {
  EXPECT_EQ(*ParseInt64("150"), 150);
  EXPECT_EQ(*ParseInt64("-3"), -3);
  for (const char* bad : {"", "x", "zz", "15x0", "1e3", " 5", "5 ", "0x10",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad).ok()) << "'" << bad << "'";
  }
}

struct CtlRun {
  int exit_code = -1;
  std::string output;
};

/// Run the seemore_ctl binary with `args`, capturing stdout and stderr.
CtlRun RunCtl(const std::string& args) {
  CtlRun run;
  const std::string command =
      std::string(SEEMORE_CTL_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) run.output += buffer;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TEST(CtlScheduleFlagsTest, MalformedFieldsFailWithInvalidArgument) {
  // Each of these used to parse as garbage-but-valid: "x@zz" crashed
  // replica 0 at t=0, "15x0" cut the link at 15 ms.
  for (const char* flag : {"--crash=x@zz", "--cut-link=3-0@15x0",
                           "--shape-link=3-0:200:5x:1000@120"}) {
    const CtlRun run = RunCtl(std::string("--quick ") + flag);
    EXPECT_NE(run.exit_code, 0) << flag << "\n" << run.output;
    EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
        << flag << "\n" << run.output;
  }
}

TEST(CtlScheduleFlagsTest, WellFormedScheduleParses) {
  const CtlRun run = RunCtl(
      "--quick --crash=0@60 --cut-link=3-0@15 "
      "--shape-link=3-0:200:50:1000@120 --dump-spec");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"cut-link\""), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("\"shape-link\""), std::string::npos)
      << run.output;
}

TEST(CtlDurabilityFlagsTest, SegmentSizesPastUint32ExitTwo) {
  // 4194304 KiB is exactly 2^32 bytes: it used to truncate to a 0-byte
  // segment and abort in the WAL; one KiB more ran with 1 KiB segments.
  // 4194308 KiB would truncate to a 4 KiB segment that Validate() accepts,
  // so only the flag's own range check can refuse it.
  for (const char* kb : {"4194304", "4194305", "4194308"}) {
    const CtlRun run = RunCtl(
        std::string("--quick --dump-spec --durable-segment-kb=") + kb);
    EXPECT_EQ(run.exit_code, 2) << kb << "\n" << run.output;
    EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
        << kb << "\n" << run.output;
  }
  // The largest whole-KiB size that fits is accepted.
  const CtlRun largest =
      RunCtl("--quick --dump-spec --durable-segment-kb=4194303");
  ASSERT_EQ(largest.exit_code, 0) << largest.output;
  EXPECT_NE(largest.output.find("4294966272"), std::string::npos)
      << largest.output;
}

TEST(CtlDurabilityFlagsTest, FsyncIntervalPastIntExitsTwo) {
  // 2^32 + 1 used to narrow to an fsync interval of 1.
  const CtlRun run = RunCtl("--quick --dump-spec --durable-fsync=4294967297");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
      << run.output;
}

TEST(MultiCloudTest, SingleCloudMatchesEq2) {
  // One offer with unlimited capacity must reproduce the single-cloud
  // result of Eq. 2 (paper's worked example: S=2, c=1, a=0.3 -> 10 nodes).
  MultiCloudPlan plan =
      PlanMultiCloud(2, 1, {{"aws", 0.3, 1000}});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_rented, 10);
  EXPECT_EQ(plan.network_size, 12);
}

TEST(MultiCloudTest, PrefersLowerAlphaCloud) {
  MultiCloudPlan plan = PlanMultiCloud(
      2, 1, {{"sketchy", 0.3, 100}, {"clean", 0.05, 100}});
  ASSERT_TRUE(plan.feasible);
  // Everything should come from the clean provider, and far fewer nodes
  // are needed than from the 0.3 provider alone.
  EXPECT_EQ(plan.rented[0], 0);
  EXPECT_GT(plan.rented[1], 0);
  EXPECT_LT(plan.total_rented, 10);
}

TEST(MultiCloudTest, SpillsOverWhenCapacityExhausted) {
  MultiCloudPlan plan = PlanMultiCloud(
      2, 1, {{"clean-small", 0.05, 2}, {"dirty-big", 0.25, 100}});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.rented[0], 2);  // exhausted first (lower alpha)
  EXPECT_GT(plan.rented[1], 0);  // remainder from the other cloud
  // The plan satisfies Eq. 1 with the conservative malicious bounds.
  auto bound = [](double alpha, int p) {
    return static_cast<int>(std::ceil(alpha * p - 1e-9));
  };
  const int malicious =
      bound(0.05, plan.rented[0]) + bound(0.25, plan.rented[1]);
  EXPECT_GE(2 + plan.total_rented, HybridNetworkSize(malicious, 1));
}

TEST(MultiCloudTest, InfeasibleWhenCapacityTooSmall) {
  MultiCloudPlan plan = PlanMultiCloud(2, 1, {{"tiny", 0.3, 2}});
  EXPECT_FALSE(plan.feasible);
}

TEST(MultiCloudTest, SelfSufficientPrivateCloud) {
  MultiCloudPlan plan = PlanMultiCloud(5, 2, {{"any", 0.1, 10}});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_rented, 0);
}

TEST(MultiCloudTest, UselessPrivateCloud) {
  MultiCloudPlan plan = PlanMultiCloud(1, 1, {{"any", 0.1, 100}});
  EXPECT_FALSE(plan.feasible);
}

}  // namespace
}  // namespace seemore
