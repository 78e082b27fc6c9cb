// seemore_ctl: scriptable scenario driver for the simulated hybrid cloud,
// in the spirit of RocksDB's db_bench. The tool itself is a thin shell: it
// translates flags (or a JSON file, or a registry name) into a declarative
// scenario::ScenarioSpec and hands it to scenario::RunScenario, which owns
// cluster construction, the fault/switch/partition schedule and reporting.
//
// Examples:
//   seemore_ctl --protocol=seemore --mode=lion --c=1 --m=1 --clients=32
//   seemore_ctl --protocol=seemore --mode=lion --crash=0@100 --recover=0@400
//   seemore_ctl --protocol=seemore --switch=dog@150 --switch=peacock@400
//   seemore_ctl --protocol=bft --f=2 --byzantine=5:wrongvotes@0 --drop=0.02
//   seemore_ctl --list-scenarios
//   seemore_ctl --scenario=fig4-primary-crash --quick
//   seemore_ctl --smoke --jobs=8 --report-dir=reports
//   seemore_ctl --bench=fig2 --quick --jobs=4
//   seemore_ctl --c=2 --m=1 --dump-spec > my.json; seemore_ctl --scenario=my.json
//
// A spec dumped with --dump-spec re-runs via --scenario= to a bit-identical
// report under the same seed — including with --jobs > 1: every sweep point
// runs on its own cluster with a spec-derived seed, so parallel reports are
// bit-identical to serial ones (tests/parallel_sweep_test.cc).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rt/launcher.h"
#include "rt/tcp_transport.h"
#include "scenario/builder.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "tools/bench_plans.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace seemore {
namespace {

using scenario::ScenarioReport;
using scenario::ScenarioSpec;

/// Split one schedule-flag value at `seps`, one separator each and in
/// order ("-@" splits "3-0@150" into "3", "0", "150"), then parse every
/// field strictly as an integer except the one at `text_field` (-1: none),
/// which comes back in `text`. `form` names the expected shape in errors.
Result<std::vector<int64_t>> ParseSpec(const std::string& flag,
                                       const std::string& spec,
                                       const std::string& seps,
                                       const std::string& form,
                                       int text_field = -1,
                                       std::string* text = nullptr) {
  const Status bad = Status::InvalidArgument("expected --" + flag + "=" +
                                             form + ", got: " + spec);
  std::vector<std::string> fields;
  size_t start = 0;
  for (char sep : seps) {
    const size_t at = spec.find(sep, start);
    if (at == std::string::npos) return bad;
    fields.push_back(spec.substr(start, at - start));
    start = at + 1;
  }
  fields.push_back(spec.substr(start));
  std::vector<int64_t> values(fields.size(), 0);
  for (size_t i = 0; i < fields.size(); ++i) {
    if (static_cast<int>(i) == text_field) {
      *text = fields[i];
    } else if (Result<int64_t> value = ParseInt64(fields[i]); value.ok()) {
      values[i] = *value;
    } else {
      return Status::InvalidArgument(bad.message() + " (" +
                                     value.status().message() + ")");
    }
  }
  return values;
}

/// Flag -> schedule translation for every integer-only event family:
/// "<id>@<ms>" (crash, recover, restart, power-loss), "<id>:<arg>@<ms>"
/// (truncate-log's byte count, corrupt-log's bit-flip offset), "<ms>"
/// (crash-primary, partition, heal), "<from>-<to>@<ms>" (cut-link,
/// restore-link) and "<from>-<to>:<delay_us>:<jitter_us>:<ppm>@<ms>"
/// (shape-link). The time is always the last field.
Status ParseEvents(const FlagSet& flags, const std::string& flag,
                   scenario::EventKind kind,
                   scenario::ScenarioBuilder& builder) {
  using scenario::EventKind;
  std::string seps = "@";
  std::string form = "<id>@<ms>";
  switch (kind) {
    case EventKind::kTruncateLog:
    case EventKind::kCorruptLog:
      seps = ":@";
      form = "<id>:<arg>@<ms>";
      break;
    case EventKind::kCrashPrimary:
    case EventKind::kPartitionClouds:
    case EventKind::kHealClouds:
      seps = "";
      form = "<ms>[,<ms>...]";
      break;
    case EventKind::kCutLink:
    case EventKind::kRestoreLink:
      seps = "-@";
      form = "<from>-<to>@<ms>";
      break;
    case EventKind::kShapeLink:
      seps = "-:::@";
      form = "<from>-<to>:<delay_us>:<jitter_us>:<ppm>@<ms>";
      break;
    default:
      break;
  }
  for (const std::string& spec : SplitString(flags.GetString(flag), ',')) {
    SEEMORE_ASSIGN_OR_RETURN(std::vector<int64_t> v,
                             ParseSpec(flag, spec, seps, form));
    const SimTime at = Millis(v.back());
    const int id = v.size() > 1 ? static_cast<int>(v[0]) : -1;
    switch (kind) {
      case EventKind::kCrash:
        builder.CrashAt(at, id);
        break;
      case EventKind::kRecover:
        builder.RecoverAt(at, id);
        break;
      case EventKind::kRestart:
        builder.RestartAt(at, id);
        break;
      case EventKind::kPowerLoss:
        builder.PowerLossAt(at, id);
        break;
      case EventKind::kTruncateLog:
        builder.TruncateLogAt(at, id, v[1]);
        break;
      case EventKind::kCorruptLog:
        builder.CorruptLogAt(at, id, v[1]);
        break;
      case EventKind::kCrashPrimary:
        builder.CrashPrimaryAt(at);
        break;
      case EventKind::kPartitionClouds:
        builder.PartitionCloudsAt(at);
        break;
      case EventKind::kHealClouds:
        builder.HealCloudsAt(at);
        break;
      case EventKind::kCutLink:
        builder.CutLinkAt(at, id, static_cast<int>(v[1]));
        break;
      case EventKind::kRestoreLink:
        builder.RestoreLinkAt(at, id, static_cast<int>(v[1]));
        break;
      case EventKind::kShapeLink:
        builder.ShapeLinkAt(at, id, static_cast<int>(v[1]), Micros(v[2]),
                            Micros(v[3]), v[4]);
        break;
      default:
        return Status::Internal("bad schedule-event kind");
    }
  }
  return Status::Ok();
}

Result<ScenarioSpec> SpecFromFlags(const FlagSet& flags) {
  scenario::ScenarioBuilder builder;
  builder.Name("cli");

  SEEMORE_ASSIGN_OR_RETURN(
      ProtocolKind protocol,
      scenario::ProtocolKindFromToken(flags.GetString("protocol")));
  SEEMORE_ASSIGN_OR_RETURN(
      SeeMoReMode mode, scenario::SeeMoReModeFromToken(flags.GetString("mode")));
  const int c = static_cast<int>(flags.GetInt("c"));
  const int m = static_cast<int>(flags.GetInt("m"));
  switch (protocol) {
    case ProtocolKind::kSeeMoRe:
      builder.SeeMoRe(mode, c, m);
      break;
    case ProtocolKind::kCft:
      builder.Cft(static_cast<int>(flags.GetInt("f")));
      break;
    case ProtocolKind::kBft:
      builder.Bft(static_cast<int>(flags.GetInt("f")));
      break;
    case ProtocolKind::kSUpRight:
      builder.SUpRight(c, m);
      break;
  }
  builder.CloudSizes(
      flags.WasSet("s") ? static_cast<int>(flags.GetInt("s")) : -1,
      flags.WasSet("p") ? static_cast<int>(flags.GetInt("p")) : -1);

  builder.Batching(static_cast<int>(flags.GetInt("batch")),
                   static_cast<int>(flags.GetInt("pipeline")))
      .CheckpointPeriod(static_cast<int>(flags.GetInt("checkpoint-period")))
      .ViewChangeTimeout(Millis(flags.GetInt("vc-timeout-ms")))
      .Drop(flags.GetDouble("drop"))
      .Duplicate(flags.GetDouble("duplicate"))
      .Seed(static_cast<uint64_t>(flags.GetInt("seed")))
      .Clients(static_cast<int>(flags.GetInt("clients")))
      .Warmup(Millis(flags.GetInt("warmup-ms")))
      .Measure(Millis(flags.GetInt("duration-ms")))
      .Drain(Millis(flags.GetInt("drain-ms")));
  // Only the base latency is a flag; jitter keeps the NetworkConfig default.
  builder.mutable_spec().net.cross_cloud.base =
      Micros(flags.GetInt("cross-cloud-us"));

  SEEMORE_ASSIGN_OR_RETURN(
      scenario::WorkloadKind workload,
      scenario::WorkloadKindFromToken(flags.GetString("workload")));
  if (workload == scenario::WorkloadKind::kKv) {
    builder.Kv(static_cast<int>(flags.GetInt("keys")), 0.5);
  } else {
    builder.Echo(static_cast<uint32_t>(flags.GetInt("req-kb")),
                 static_cast<uint32_t>(flags.GetInt("rep-kb")));
  }
  if (flags.GetBool("timeline")) {
    builder.Timeline(Millis(flags.GetInt("timeline-bucket-ms")));
  }
  if (flags.GetBool("check-convergence")) {
    builder.CheckConvergence();
    // The convergence verdict is only meaningful at quiescence (spec.h):
    // without a drain, replicas legitimately differ by in-flight commits at
    // the measurement cutoff. Default to a drain when none was requested.
    if (flags.GetInt("drain-ms") == 0) builder.Drain(Millis(200));
  }

  // Fault / switch / partition schedule.
  SEEMORE_RETURN_IF_ERROR(
      ParseEvents(flags, "crash", scenario::EventKind::kCrash, builder));
  SEEMORE_RETURN_IF_ERROR(
      ParseEvents(flags, "recover", scenario::EventKind::kRecover, builder));
  for (const std::string& spec :
       SplitString(flags.GetString("byzantine"), ',')) {
    std::string kinds;
    SEEMORE_ASSIGN_OR_RETURN(
        std::vector<int64_t> v,
        ParseSpec("byzantine", spec, ":@", "<id>:<kind>@<ms>", 1, &kinds));
    SEEMORE_ASSIGN_OR_RETURN(uint32_t behaviours,
                             scenario::ByzFlagsFromToken(kinds));
    builder.ByzantineAt(Millis(v[2]), static_cast<int>(v[0]), behaviours);
  }
  for (const std::string& spec : SplitString(flags.GetString("switch"), ',')) {
    std::string mode;
    SEEMORE_ASSIGN_OR_RETURN(
        std::vector<int64_t> v,
        ParseSpec("switch", spec, "@", "<mode>@<ms>", 0, &mode));
    SEEMORE_ASSIGN_OR_RETURN(SeeMoReMode target,
                             scenario::SeeMoReModeFromToken(mode));
    builder.SwitchAt(Millis(v[1]), target);
  }
  for (const auto& [flag, kind] :
       {std::make_pair("crash-primary", scenario::EventKind::kCrashPrimary),
        std::make_pair("partition", scenario::EventKind::kPartitionClouds),
        std::make_pair("heal", scenario::EventKind::kHealClouds),
        std::make_pair("cut-link", scenario::EventKind::kCutLink),
        std::make_pair("restore-link", scenario::EventKind::kRestoreLink),
        std::make_pair("shape-link", scenario::EventKind::kShapeLink)}) {
    SEEMORE_RETURN_IF_ERROR(ParseEvents(flags, flag, kind, builder));
  }

  // Durability + the restart/fault-injection family it enables.
  if (flags.GetBool("durable") || flags.WasSet("durable-fsync") ||
      flags.WasSet("durable-segment-kb")) {
    // Range-check both flags before narrowing them (and the segment size
    // before multiplying it): the WAL takes an int fsync interval and a
    // 32-bit segment size.
    const int64_t fsync_interval = flags.GetInt("durable-fsync");
    if (fsync_interval < 1 || fsync_interval > INT32_MAX) {
      return Status::InvalidArgument(
          "--durable-fsync out of range: must be in [1, " +
          std::to_string(INT32_MAX) + "]");
    }
    const int64_t segment_kb = flags.GetInt("durable-segment-kb");
    constexpr int64_t kMaxSegmentKb = UINT32_MAX / 1024;
    if (segment_kb < 0 || segment_kb > kMaxSegmentKb) {
      return Status::InvalidArgument(
          "--durable-segment-kb out of range: a WAL segment must fit in 32 "
          "bits (at most " + std::to_string(kMaxSegmentKb) + " KiB)");
    }
    builder.Durability(static_cast<int>(fsync_interval),
                       static_cast<uint32_t>(segment_kb * 1024));
  }
  for (const auto& [flag, kind] :
       {std::make_pair("restart", scenario::EventKind::kRestart),
        std::make_pair("power-loss", scenario::EventKind::kPowerLoss),
        std::make_pair("truncate-log", scenario::EventKind::kTruncateLog),
        std::make_pair("corrupt-log", scenario::EventKind::kCorruptLog)}) {
    SEEMORE_RETURN_IF_ERROR(ParseEvents(flags, flag, kind, builder));
  }

  return builder.spec();
}

/// Resolve --scenario=<registry name | file.json>.
Result<ScenarioSpec> LoadScenario(const std::string& ref) {
  Result<ScenarioSpec> named = scenario::FindScenario(ref);
  if (named.ok()) return named;
  std::ifstream file(ref);
  if (!file) {
    return Status::NotFound("\"" + ref +
                            "\" is neither a registered scenario "
                            "(--list-scenarios) nor a readable file");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return ScenarioSpec::FromJsonText(text.str());
}

void PrintVerdict(std::FILE* out, const char* indent,
                  const scenario::Verdict& verdict) {
  if (!verdict.survival.ok()) {
    std::fprintf(out, "%ssurvival: %s\n", indent,
                 verdict.survival.ToString().c_str());
  }
  if (!verdict.schedule.ok()) {
    std::fprintf(out, "%sschedule: %s\n", indent,
                 verdict.schedule.ToString().c_str());
  }
  std::fprintf(out, "%sagreement: %s\n", indent,
               verdict.agreement.ToString().c_str());
  if (verdict.convergence_checked) {
    std::fprintf(out, "%sconvergence: %s\n", indent,
                 verdict.convergence.ToString().c_str());
  }
}

void PrintReport(const FlagSet& flags, const ScenarioReport& report) {
  for (const scenario::AppliedEvent& event : report.events) {
    std::printf("%s\n", event.description.c_str());
  }
  std::printf("\n%s\n", report.result.ToString().c_str());

  if (!report.timeline.buckets.empty()) {
    std::printf("\ntimeline (Kreq/s per %lldms bucket):\n",
                static_cast<long long>(ToMillis(report.timeline.bucket_width)));
    for (size_t b = 0; b < report.timeline.buckets.size(); ++b) {
      std::printf(
          "  %6lld ms %8.1f\n",
          static_cast<long long>(b * ToMillis(report.timeline.bucket_width)),
          report.timeline.KreqsAt(b));
    }
  }

  if (flags.GetBool("replica-stats")) {
    std::printf("\nper-replica state:\n");
    for (const scenario::ReplicaReport& replica : report.replicas) {
      std::printf(
          "  %d%s: executed=%llu committed_batches=%llu view_changes=%llu "
          "msgs=%llu cpu_busy=%.1fms%s\n",
          replica.id, replica.trusted ? " (private)" : " (public) ",
          static_cast<unsigned long long>(replica.requests_executed),
          static_cast<unsigned long long>(replica.batches_committed),
          static_cast<unsigned long long>(replica.view_changes_completed),
          static_cast<unsigned long long>(replica.messages_handled),
          replica.cpu_busy_ms, replica.crashed ? " CRASHED" : "");
    }
  }

  PrintVerdict(stdout, "", report);
}

using scenario::ApplyQuickBudgets;

/// --backend=tcp: launch real node processes instead of simulating. The
/// launcher (rt/launcher.h) spawns one seemore_node per replica, hosts the
/// spec's clients over real TCP, injects schedule faults as process
/// kills/respawns, and merges the per-node reports.
int RunTcp(const FlagSet& flags, const ScenarioSpec& spec) {
  // Checked before the narrowing below, which would wrap a bad value onto
  // some other port.
  const Status ports = rt::CheckPortBlock(flags.GetInt("base-port"),
                                          spec.ResolvedConfig().n());
  if (!ports.ok()) {
    std::fprintf(stderr, "%s\n", ports.ToString().c_str());
    return 2;
  }
  rt::LauncherOptions options;
  options.node_binary = flags.GetString("node-binary");
  options.work_dir = flags.GetString("work-dir");
  options.base_port = static_cast<uint16_t>(flags.GetInt("base-port"));
  options.keep_work_dir = flags.GetBool("keep-work-dir");
  options.verbose = flags.GetBool("rt-verbose");

  std::printf("backend: tcp (real processes on 127.0.0.1:%u+)\n",
              options.base_port);
  Result<rt::TcpRunReport> run = rt::RunTcpScenario(spec, options);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 2;
  }
  const rt::TcpRunReport& report = *run;

  for (const scenario::AppliedEvent& event : report.events) {
    std::printf("%s [applied at %lldms]\n", event.description.c_str(),
                static_cast<long long>(ToMillis(event.at)));
  }
  std::printf("\n%s\n", report.result.ToString().c_str());
  if (flags.GetBool("replica-stats")) {
    std::printf("\nper-node state:\n");
    for (const Json& node : report.nodes) {
      const Json* crashed = node.Find("crashed");
      if (crashed != nullptr && crashed->AsBool()) {
        std::printf("  %d: CRASHED (no report)\n",
                    static_cast<int>(node.Find("id")->AsInt()));
        continue;
      }
      const Json* stats = node.Find("stats");
      std::printf("  %d: executed=%lld last_executed=%lld msgs=%lld%s\n",
                  static_cast<int>(node.Find("id")->AsInt()),
                  static_cast<long long>(
                      stats->Find("requests_executed")->AsInt()),
                  static_cast<long long>(node.Find("last_executed")->AsInt()),
                  static_cast<long long>(
                      stats->Find("messages_handled")->AsInt()),
                  node.Find("recovery")->Find("recovered")->AsBool()
                      ? " (recovered from disk)"
                      : "");
    }
  }
  PrintVerdict(stdout, "", report);

  if (flags.WasSet("report-json")) {
    const std::string path = flags.GetString("report-json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    out << report.ToJson().Dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return report.ok() ? 0 : 1;
}

/// --smoke: every registered scenario at quick budgets in ONE RunMany pass
/// across `jobs` workers (what the CI scenario-smoke step runs). Writes
/// REPORT_<name>.json per scenario under --report-dir when set. Returns
/// nonzero if any scenario failed to run or violated an invariant.
int SmokeRegistry(const FlagSet& flags, int jobs) {
  std::vector<std::string> names;
  std::vector<ScenarioSpec> specs;
  for (const scenario::RegistryEntry& entry : scenario::Registry()) {
    Result<ScenarioSpec> spec = scenario::FindScenario(entry.name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    ApplyQuickBudgets(*spec);
    names.push_back(entry.name);
    specs.push_back(*std::move(spec));
  }

  std::printf("smoking %zu scenarios with %d jobs\n", specs.size(), jobs);
  Result<std::vector<ScenarioReport>> reports =
      scenario::RunMany(specs, jobs);
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    return 2;
  }

  const std::string report_dir = flags.GetString("report-dir");
  if (!report_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(report_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", report_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }
  int status = 0;
  for (size_t i = 0; i < reports->size(); ++i) {
    const ScenarioReport& report = (*reports)[i];
    std::printf("%-24s %s  completed=%llu wall=%.0fms\n", names[i].c_str(),
                report.ok() ? "ok  " : "FAIL",
                static_cast<unsigned long long>(report.result.completed),
                report.result.wall_time_ms);
    if (!report.ok()) {
      PrintVerdict(stderr, "  ", report);
      status = 1;
    }
    if (!report_dir.empty()) {
      const std::string path = report_dir + "/REPORT_" + names[i] + ".json";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        status = 2;
        continue;
      }
      out << report.ToJson().Dump(2) << "\n";
    }
  }
  return status;
}

int Run(const FlagSet& flags) {
  const int jobs_flag = static_cast<int>(flags.GetInt("jobs"));
  const int jobs = jobs_flag > 0 ? jobs_flag : ThreadPool::DefaultJobs();

  if (flags.GetBool("smoke")) return SmokeRegistry(flags, jobs);
  if (flags.WasSet("bench")) {
    return RunBenchPlan(flags.GetString("bench"), flags.GetBool("quick"),
                        jobs);
  }

  if (flags.GetBool("list-scenarios")) {
    for (const scenario::RegistryEntry& entry : scenario::Registry()) {
      if (flags.GetBool("verbose-list")) {
        std::printf("%-24s %s\n", entry.name.c_str(),
                    entry.description.c_str());
      } else {
        std::printf("%s\n", entry.name.c_str());
      }
    }
    return 0;
  }

  Result<ScenarioSpec> loaded =
      flags.WasSet("scenario") ? LoadScenario(flags.GetString("scenario"))
                               : SpecFromFlags(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 2;
  }
  ScenarioSpec spec = std::move(loaded).value();

  if (flags.GetBool("quick")) ApplyQuickBudgets(spec);

  // --backend overrides the spec's backend field; either can pick tcp.
  if (flags.WasSet("backend")) {
    Result<scenario::BackendKind> backend =
        scenario::BackendKindFromToken(flags.GetString("backend"));
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 2;
    }
    spec.backend = *backend;
  }

  Status valid = spec.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid scenario: %s\n", valid.ToString().c_str());
    return 2;
  }

  if (flags.GetBool("dump-spec")) {
    std::printf("%s", spec.ToJsonText().c_str());
    return 0;
  }

  std::printf("scenario: %s  cluster: %s  seed=%llu\n", spec.name.c_str(),
              spec.ResolvedConfig().ToString().c_str(),
              static_cast<unsigned long long>(spec.seed));

  if (spec.backend == scenario::BackendKind::kTcp) {
    return RunTcp(flags, spec);
  }

  // A spec with a sweep plan runs one fresh cluster per client population;
  // otherwise a single full-lifecycle run.
  std::vector<ScenarioReport> reports;
  if (!spec.plan.sweep_clients.empty()) {
    Result<std::vector<ScenarioReport>> sweep =
        scenario::RunSweep(spec, jobs);
    if (!sweep.ok()) {
      std::fprintf(stderr, "%s\n", sweep.status().ToString().c_str());
      return 2;
    }
    reports = *std::move(sweep);
  } else {
    Result<ScenarioReport> run = scenario::RunScenario(spec);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 2;
    }
    reports.push_back(*std::move(run));
  }
  for (const ScenarioReport& report : reports) {
    PrintReport(flags, report);
  }

  if (flags.WasSet("report-json")) {
    const std::string path = flags.GetString("report-json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    if (reports.size() == 1) {
      out << reports[0].ToJson().Dump(2) << "\n";
    } else {
      Json all = Json::Array();
      for (const ScenarioReport& report : reports) {
        all.Append(report.ToJson());
      }
      out << all.Dump(2) << "\n";
    }
    std::printf("wrote %s\n", path.c_str());
  }
  for (const ScenarioReport& report : reports) {
    if (!report.ok()) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace seemore

int main(int argc, char** argv) {
  using namespace seemore;
  FlagSet flags(
      "seemore_ctl: drive a simulated hybrid-cloud replication cluster "
      "through workloads, faults and mode switches");
  flags.AddString("scenario", "",
                  "run a registered scenario by name, or a ScenarioSpec "
                  "JSON file by path (overrides the topology flags)");
  flags.AddBool("list-scenarios", false, "print registered scenario names");
  flags.AddBool("verbose-list", false,
                "with --list-scenarios: include descriptions");
  flags.AddBool("dump-spec", false,
                "print the scenario as JSON instead of running it");
  flags.AddBool("quick", false, "shrink warmup/measure/drain for smoke runs");
  flags.AddBool("smoke", false,
                "run EVERY registered scenario at quick budgets in one "
                "parallel pass (see --jobs); nonzero exit on any violation");
  flags.AddString("bench", "",
                  "run a paper-reproduction plan and write "
                  "BENCH_<plan>.json: fig2 | fig3 | fig4 | table1 | ablation "
                  "| pipeline | durability | sizing (--quick: its smoke "
                  "budgets)");
  flags.AddInt("jobs", 0,
               "worker threads for sweeps, --smoke and --bench (0 = hardware "
               "concurrency); parallel reports are bit-identical to --jobs=1");
  flags.AddString("report-dir", "",
                  "with --smoke: write REPORT_<scenario>.json files here");
  flags.AddString("report-json", "",
                  "write the structured ScenarioReport to this file");
  flags.AddString("backend", "sim",
                  "sim = run in the simulator; tcp = launch real seemore_node "
                  "processes on localhost and drive them with the same spec");
  flags.AddInt("base-port", 18500,
               "tcp backend: replica r listens on base-port + r");
  flags.AddString("node-binary", "",
                  "tcp backend: path to seemore_node (default: sibling of "
                  "this binary)");
  flags.AddString("work-dir", "",
                  "tcp backend: scratch dir for spec/report/data files "
                  "(default: a fresh /tmp dir, removed afterwards)");
  flags.AddBool("keep-work-dir", false,
                "tcp backend: keep the scratch dir for inspection");
  flags.AddBool("rt-verbose", false,
                "tcp backend: log spawn/kill/respawn activity to stderr");
  flags.AddString("protocol", "seemore", "seemore | cft | bft | supright");
  flags.AddString("mode", "lion", "initial SeeMoRe mode: lion | dog | peacock");
  flags.AddInt("c", 1, "crash budget (private cloud)");
  flags.AddInt("m", 1, "Byzantine budget (public cloud)");
  flags.AddInt("f", 2, "flat failure budget for cft/bft");
  flags.AddInt("s", 0, "private cloud size (default 2c)");
  flags.AddInt("p", 0, "public cloud size (default 3m+1)");
  flags.AddInt("clients", 16, "closed-loop client count");
  flags.AddInt("warmup-ms", 150, "warmup before measurement");
  flags.AddInt("duration-ms", 500, "measured duration");
  flags.AddInt("drain-ms", 0, "post-run drain before invariant checks");
  flags.AddString("workload", "echo", "echo | kv");
  flags.AddInt("req-kb", 0, "echo request payload (KiB)");
  flags.AddInt("rep-kb", 0, "echo reply payload (KiB)");
  flags.AddInt("keys", 128, "kv workload keyspace");
  flags.AddInt("batch", 256, "max requests per consensus instance");
  flags.AddInt("pipeline", 2, "max in-flight consensus instances");
  flags.AddInt("checkpoint-period", 512, "checkpoint every N sequences");
  flags.AddInt("vc-timeout-ms", 30, "primary-suspicion timer");
  flags.AddDouble("drop", 0.0, "message drop probability");
  flags.AddDouble("duplicate", 0.0, "message duplication probability");
  flags.AddInt("cross-cloud-us", 90, "private<->public one-way latency (us)");
  flags.AddInt("seed", 42, "simulation seed (deterministic replay)");
  flags.AddRepeatedString("crash", "", "schedule: <id>@<ms>[,<id>@<ms>...]");
  flags.AddRepeatedString("recover", "", "schedule: <id>@<ms>[,...]");
  flags.AddRepeatedString("byzantine", "",
                  "schedule: <id>:<silent|equivocate|wrongvotes|lie>[+...]"
                  "@<ms>[,...]");
  flags.AddRepeatedString("switch", "", "schedule: <mode>@<ms>[,...] (seemore only)");
  flags.AddRepeatedString("crash-primary", "",
                  "schedule: <ms>[,...] crash whoever is primary then");
  flags.AddRepeatedString("partition", "",
                  "schedule: <ms>[,...] cut all private<->public links");
  flags.AddRepeatedString("heal", "", "schedule: <ms>[,...] restore partitioned links");
  flags.AddRepeatedString("cut-link", "",
                  "schedule: <from>-<to>@<ms>[,...] drop all frames "
                  "from -> to (ONE direction; the reverse keeps flowing)");
  flags.AddRepeatedString("restore-link", "",
                  "schedule: <from>-<to>@<ms>[,...] undo a --cut-link");
  flags.AddRepeatedString("shape-link", "",
                  "schedule: <from>-<to>:<delay_us>:<jitter_us>:<ppm>@<ms>"
                  "[,...] impose extra delay/jitter/loss on from -> to");
  flags.AddBool("durable", false,
                "give every replica a durable WAL + snapshot store (in the "
                "simulated storage medium; see --restart)");
  flags.AddInt("durable-fsync", 1,
               "unsynced commit records that start a background sync; 1 = "
               "sync every record and hold each reply until its record is "
               "durable, larger = sync less and reply first (setting this "
               "implies --durable)");
  flags.AddInt("durable-segment-kb", 64,
               "WAL segment size in KiB (setting this implies --durable)");
  flags.AddRepeatedString("restart", "",
                  "schedule: <id>@<ms>[,...] replace a crashed replica with "
                  "a fresh process restored from its durable store "
                  "(requires --durable)");
  flags.AddRepeatedString("power-loss", "",
                  "schedule: <id>@<ms>[,...] crash AND roll the disk back "
                  "to its durable frontier (requires --durable)");
  flags.AddRepeatedString("truncate-log", "",
                  "schedule: <id>:<bytes>@<ms>[,...] chop bytes off a "
                  "downed replica's WAL tail (torn-write injection)");
  flags.AddRepeatedString("corrupt-log", "",
                  "schedule: <id>:<offset>@<ms>[,...] flip one bit offset "
                  "bytes before a downed replica's WAL end");
  flags.AddBool("check-convergence", false,
                "after the drain, require live honest replicas to share one "
                "state digest");
  flags.AddBool("timeline", false, "print per-bucket throughput timeline");
  flags.AddInt("timeline-bucket-ms", 10, "timeline bucket width");
  flags.AddBool("replica-stats", true, "print per-replica counters");

  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  return Run(flags);
}
