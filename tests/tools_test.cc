// Flag parsing (the FlagSet library, and seemore_ctl's and seemore_node's
// flags run as the real binaries), when a tcp crash-primary event is
// applied, seemore_ctl's --bench plans, and the multi-cloud sizing
// planner.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "consensus/config.h"
#include "scenario/registry.h"
#include "util/flags.h"
#include "util/json.h"

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

struct ToolRun {
  int exit_code = -1;
  std::string output;
};

/// Run `binary` with `args`, capturing stdout and stderr.
ToolRun RunTool(const char* binary, const std::string& args) {
  ToolRun run;
  const std::string command = std::string(binary) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) run.output += buffer;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

ToolRun RunCtl(const std::string& args) {
  return RunTool(SEEMORE_CTL_PATH, args);
}

TEST(CtlScheduleFlagsTest, MalformedFieldsFailWithInvalidArgument) {
  // Each of these used to parse as garbage-but-valid: "x@zz" crashed
  // replica 0 at t=0, "15x0" cut the link at 15 ms.
  for (const char* flag : {"--crash=x@zz", "--cut-link=3-0@15x0",
                           "--shape-link=3-0:200:5x:1000@120"}) {
    const ToolRun run = RunCtl(std::string("--quick ") + flag);
    EXPECT_NE(run.exit_code, 0) << flag << "\n" << run.output;
    EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
        << flag << "\n" << run.output;
  }
}

TEST(CtlScheduleFlagsTest, WellFormedScheduleParses) {
  const ToolRun run = RunCtl(
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
    const ToolRun run = RunCtl(
        std::string("--quick --dump-spec --durable-segment-kb=") + kb);
    EXPECT_EQ(run.exit_code, 2) << kb << "\n" << run.output;
    EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
        << kb << "\n" << run.output;
  }
  // The largest whole-KiB size that fits is accepted.
  const ToolRun largest =
      RunCtl("--quick --dump-spec --durable-segment-kb=4194303");
  ASSERT_EQ(largest.exit_code, 0) << largest.output;
  EXPECT_NE(largest.output.find("4294966272"), std::string::npos)
      << largest.output;
}

TEST(CtlDurabilityFlagsTest, FsyncIntervalPastIntExitsTwo) {
  // 2^32 + 1 used to narrow to an fsync interval of 1.
  const ToolRun run = RunCtl("--quick --dump-spec --durable-fsync=4294967297");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
      << run.output;
}

TEST(CtlTcpFlagsTest, BasePortOutsidePortRangeExitsTwo) {
  // 70000 used to wrap to port 4464 and run there; 65533 put replica 3 on
  // port 0 and waited out the connect timeout. The default Lion cluster has
  // six replicas, so its block must end at 65535 or below.
  for (const char* port : {"70000", "65533", "65531", "0", "-1"}) {
    const ToolRun run =
        RunCtl(std::string("--backend=tcp --quick --base-port=") + port);
    EXPECT_EQ(run.exit_code, 2) << port << "\n" << run.output;
    EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
        << port << "\n" << run.output;
    EXPECT_EQ(run.output.find("backend: tcp"), std::string::npos)
        << "refused before any process starts\n" << run.output;
  }
}

TEST(CtlTcpScheduleTest, CrashPrimaryIsAppliedInsideTheRun) {
  // A quick run is 100 ms of warmup and 250 ms of measurement. The primary
  // query used to be decided on a fixed 300 ms timer, so this event was
  // never applied or reported and the run still passed; now it is decided
  // once every live node has answered.
  const ToolRun run = RunCtl(
      "--backend=tcp --quick --crash-primary=60 --base-port=19400");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string event = "crash the current primary (replica 0) [applied at ";
  const size_t at = run.output.find(event);
  ASSERT_NE(at, std::string::npos) << run.output;
  const long applied_ms = std::atol(run.output.c_str() + at + event.size());
  EXPECT_GE(applied_ms, 60) << run.output;
  EXPECT_LT(applied_ms, 350) << "applied after the measure window closed\n"
                             << run.output;
  EXPECT_EQ(run.output.find("not applied"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("agreement: Ok"), std::string::npos) << run.output;
}

TEST(NodeFlagsTest, BasePortOutsidePortRangeExitsTwo) {
  const ToolRun spec = RunCtl("--quick --dump-spec");
  ASSERT_EQ(spec.exit_code, 0) << spec.output;
  const std::string path = testing::TempDir() + "tools_test_node_spec.json";
  FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  std::fputs(spec.output.c_str(), out);
  std::fclose(out);
  for (const char* port : {"70000", "65533", "0"}) {
    const ToolRun run = RunTool(
        SEEMORE_NODE_PATH,
        "--spec=" + path + " --id=0 --base-port=" + std::string(port));
    EXPECT_EQ(run.exit_code, 2) << port << "\n" << run.output;
    EXPECT_NE(run.output.find("InvalidArgument"), std::string::npos)
        << port << "\n" << run.output;
  }
  std::remove(path.c_str());
}

TEST(CtlBenchTest, UnknownPlanExitsTwoAndListsPlans) {
  const ToolRun run = RunCtl("--bench=fig9");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  for (const char* plan : {"fig2", "fig3", "fig4", "table1", "ablation",
                           "pipeline", "durability", "sizing"}) {
    EXPECT_NE(run.output.find(plan), std::string::npos)
        << plan << "\n" << run.output;
  }
}

TEST(CtlBenchTest, SizingPrintsTheWorkedExample) {
  // §4: S=2, c=1, alpha=0.3 -> rent 10 public nodes, N=12.
  const ToolRun run = RunCtl("--bench=sizing");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("Worked example: S=2, c=1, alpha=0.3\n"
                            "  -> rent P=10 public nodes, network N=12"),
            std::string::npos)
      << run.output;
}

TEST(CtlBenchTest, Table1WritesOneMessageCountPerSystem) {
  // Six single-client 600 ms simulated runs, written to a scratch dir.
  const std::string dir = testing::TempDir() + "tools_test_table1";
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string ctl = "cd '" + dir + "' && " + SEEMORE_CTL_PATH;
  const ToolRun run = RunTool(ctl.c_str(), "--bench=table1 --jobs=2");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("wrote BENCH_table1.json"), std::string::npos)
      << run.output;

  std::ifstream file(dir + "/BENCH_table1.json");
  ASSERT_TRUE(file) << run.output;
  std::ostringstream text;
  text << file.rdbuf();
  Result<Json> json = Json::Parse(text.str());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const Json* msgs = nullptr;
  for (const Json& section : json->Find("sections")->items()) {
    if (section.Find("label")->AsString() == "msgs_per_instance") {
      msgs = section.Find("scalars");
    }
  }
  ASSERT_NE(msgs, nullptr) << text.str();
  const std::vector<std::string>& systems = scenario::PaperSystemNames();
  ASSERT_EQ(msgs->size(), systems.size()) << text.str();
  for (size_t i = 0; i < systems.size(); ++i) {
    EXPECT_EQ(msgs->at(i).Find("name")->AsString(), systems[i]);
    EXPECT_GT(msgs->at(i).Find("value")->AsDouble(), 0.0) << systems[i];
  }
  std::system(("rm -rf '" + dir + "'").c_str());
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
