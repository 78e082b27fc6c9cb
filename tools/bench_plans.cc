// A bench plan is data plus one printer. The data is a list of labelled
// sections of ScenarioSpecs, built from the paper calibration in
// scenario/registry.h (PaperBaseSpec, PaperSystemSpec, Fig4SystemSpec) and
// ScenarioBuilder. RunBenchPlan submits every spec of a plan through one
// scenario::RunMany pass, so the reports are bit-identical for any --jobs;
// the printer then turns them into the plan's tables and BENCH_<name>.json.
//
// Topologies follow §6.1: for a failure budget (c, m), SeeMoRe and
// S-UpRight deploy 2c private + 3m+1 public nodes (N = 3m+2c+1), CFT uses
// 2f+1 and BFT 3f+1 with f = c+m.

#include "tools/bench_plans.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "consensus/config.h"
#include "harness/bench_json.h"
#include "scenario/builder.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "util/logging.h"

namespace seemore {
namespace {

using scenario::ScenarioBuilder;
using scenario::ScenarioReport;
using scenario::ScenarioSpec;

std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));
std::string Format(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  std::string text(std::vsnprintf(nullptr, 0, format, copy), '\0');
  va_end(copy);
  std::vsnprintf(text.data(), text.size() + 1, format, args);
  va_end(args);
  return text;
}

/// One row of a plan's table: a single run, or the points of one curve.
struct Group {
  Group(std::string name, std::string row, std::vector<ScenarioSpec> specs)
      : name(std::move(name)), row(std::move(row)), specs(std::move(specs)) {}

  std::string name;  // what the JSON calls it
  std::string row;   // how the table labels it, when that differs
  std::vector<ScenarioSpec> specs;
  /// Filled by RunBenchPlan, one per spec.
  std::vector<ScenarioReport> reports;
  std::vector<std::vector<SimTime>> completions;  // with record_completions

  std::vector<RunResult> Curve() const {
    std::vector<RunResult> curve;
    for (const ScenarioReport& report : reports) curve.push_back(report.result);
    return curve;
  }
};

struct Section {
  std::string label;  // the JSON section
  std::string title;  // printed before the section's rows
  std::vector<Group> groups;
};

struct Plan {
  std::string title;  // printed before the runs start
  std::vector<Section> sections;
  /// Record every client completion time (Figure 4's outage).
  bool record_completions = false;
  /// Prints the tables and fills the JSON; returns the exit code.
  int (*print)(const Plan&, BenchResultsJson&) = nullptr;
  std::string footer;  // printed after the JSON is written
};

/// A §6 system under budget (c, m) running the x/y echo micro-benchmark.
ScenarioSpec EchoSystem(const std::string& system, int c, int m,
                        uint32_t request_kb = 0, uint32_t reply_kb = 0,
                        uint64_t seed = 17) {
  Result<ScenarioSpec> spec = scenario::PaperSystemSpec(system, c, m, seed);
  SEEMORE_CHECK(spec.ok()) << spec.status().ToString();
  spec->workload.kind = scenario::WorkloadKind::kEcho;
  spec->workload.request_kb = request_kb;
  spec->workload.reply_kb = reply_kb;
  return *std::move(spec);
}

/// A section of Figure 2/3: each §6 system's throughput/latency curve
/// under budget (c, m), one point per closed-loop population in `clients`.
Section SystemCurves(std::string label, std::string title, int c, int m,
                     uint32_t request_kb, uint32_t reply_kb,
                     const std::vector<int>& clients, bool quick) {
  Section section{std::move(label), std::move(title), {}};
  for (const std::string& system : scenario::PaperSystemNames()) {
    ScenarioSpec spec = EchoSystem(system, c, m, request_kb, reply_kb);
    spec.plan.warmup = quick ? Millis(100) : Millis(150);
    spec.plan.measure = quick ? Millis(300) : Millis(500);
    spec.plan.sweep_clients = clients;
    section.groups.emplace_back(system, "", scenario::MakeSweepPoints(spec));
  }
  return section;
}

/// The first point of highest throughput (all zero for an empty curve).
RunResult Peak(const std::vector<RunResult>& curve) {
  RunResult peak;
  for (const RunResult& point : curve) {
    if (point.throughput_kreqs > peak.throughput_kreqs) peak = point;
  }
  return peak;
}

void PrintCurve(const std::string& label, const std::vector<RunResult>& curve) {
  for (const RunResult& point : curve) {
    std::printf("%-10s %s\n", label.c_str(), point.ToString().c_str());
  }
}

void PrintRow(const std::string& row, const RunResult& result,
              const std::string& tail = "") {
  std::printf("  %s thrpt=%7.2f kreq/s  lat=%.2f ms%s\n", row.c_str(),
              result.throughput_kreqs, result.mean_latency_ms, tail.c_str());
}

// --- Figure 2 (§6.1, fault-tolerance scalability) -------------------------
// Throughput/latency curves for the 0/0 micro-benchmark under four failure
// budgets: (a) f=2: c=1, m=1; (b) f=4: c=2, m=2; (c) f=4: c=1, m=3;
// (d) f=4: c=3, m=1. One curve point per closed-loop client population.

Plan Fig2(bool quick, int jobs) {
  Plan plan;
  plan.title = Format(
      "Figure 2 reproduction: throughput vs latency, 0/0 payload (%d jobs)\n",
      jobs);
  const std::vector<int> clients =
      quick ? std::vector<int>{4, 32}
            : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 96};
  struct Budget {
    const char* label;
    int c;
    int m;
  };
  for (const Budget& budget :
       {Budget{"a", 1, 1}, Budget{"b", 2, 2}, Budget{"c", 1, 3},
        Budget{"d", 3, 1}}) {
    plan.sections.push_back(SystemCurves(
        budget.label,
        Format("\n=== Fig 2(%s): f=%d (c=%d, m=%d) ===\n%-10s %s\n",
               budget.label, budget.c + budget.m, budget.c, budget.m, "system",
               "curve points (0/0 payload)"),
        budget.c, budget.m, 0, 0, clients, quick));
  }
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    for (const Section& section : plan.sections) {
      std::printf("%s", section.title.c_str());
      std::string peaks;
      for (const Group& group : section.groups) {
        const std::vector<RunResult> curve = group.Curve();
        const RunResult peak = Peak(curve);
        PrintCurve(group.name, curve);
        json.AddCurve(section.label, group.name, curve);
        json.AddScalar(section.label, group.name + "_peak_kreqs",
                       peak.throughput_kreqs);
        json.AddScalar(section.label, group.name + "_p99_ms_at_peak",
                       peak.p99_latency_ms);
        peaks += Format("%s=%.1f ", group.name.c_str(), peak.throughput_kreqs);
      }
      std::printf("--- peak throughput (Kreq/s): %s---\n", peaks.c_str());
    }
    return 0;
  };
  return plan;
}

// --- Figure 3 (§6.2, changing payload size) --------------------------------
// The base case c=m=1 with 0 KB requests / 4 KB replies, then 4 KB requests
// / 0 KB replies. To reproduce: request size hurts every protocol more than
// reply size (requests are re-sent between replicas, replies travel once),
// and the ordering of Figure 2(a) persists.

Plan Fig3(bool quick, int) {
  Plan plan;
  plan.title = "Figure 3 reproduction: payload benchmarks, c=1 m=1\n";
  const std::vector<int> clients =
      quick ? std::vector<int>{4, 32} : std::vector<int>{2, 8, 32, 64, 96};
  struct Payload {
    const char* label;
    uint32_t request_kb;
    uint32_t reply_kb;
  };
  for (const Payload& payload : {Payload{"0/4 (4 KB replies)", 0, 4},
                                 Payload{"4/0 (4 KB requests)", 4, 0}}) {
    plan.sections.push_back(SystemCurves(
        payload.label, Format("\n=== Fig 3: benchmark %s ===\n", payload.label),
        1, 1, payload.request_kb, payload.reply_kb, clients, quick));
  }
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    for (const Section& section : plan.sections) {
      std::printf("%s", section.title.c_str());
      for (const Group& group : section.groups) {
        const std::vector<RunResult> curve = group.Curve();
        const double peak = Peak(curve).throughput_kreqs;
        PrintCurve(group.name, curve);
        std::printf("%-10s peak=%.2f kreq/s\n", group.name.c_str(), peak);
        json.AddCurve(section.label, group.name, curve);
        json.AddScalar(section.label, group.name + "_peak_kreqs", peak);
      }
    }
    return 0;
  };
  return plan;
}

// --- Figure 4 (§6.3, performance during view change) -----------------------
// Throughput timeline with the primary crashed at t=30ms (Fig4SystemSpec).
// Expected shape: every protocol dips to zero for its view change and then
// recovers, with outage ordering Lion < Dog < Peacock < S-UpRight/BFT.

/// The longest completion-free gap in the 50ms after the crash
/// (completions arrive in virtual-time order).
SimTime OutageAfter(const std::vector<SimTime>& completions,
                    SimTime crash_at) {
  SimTime previous = crash_at;
  SimTime best_gap = 0;
  for (SimTime when : completions) {
    if (when < crash_at) continue;
    if (when > crash_at + Millis(50)) break;
    best_gap = std::max(best_gap, when - previous);
    previous = when;
  }
  return best_gap;
}

Plan Fig4(bool quick, int jobs) {
  Plan plan;
  plan.title = Format(
      "Figure 4 reproduction: throughput timeline across a primary crash\n"
      "(c=1, m=1, checkpoint period 10000, crash at t=30ms; %d jobs)\n\n",
      jobs);
  Section section{"outage_ms", "", {}};
  for (const std::string& system : scenario::PaperSystemNames()) {
    Result<ScenarioSpec> spec =
        scenario::Fig4SystemSpec(system, quick ? 16 : 48);
    SEEMORE_CHECK(spec.ok()) << spec.status().ToString();
    section.groups.push_back({system, "", {*std::move(spec)}});
  }
  plan.sections.push_back(std::move(section));
  plan.record_completions = true;
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    const std::vector<Group>& groups = plan.sections[0].groups;
    const ScenarioSpec& spec = groups[0].specs[0];
    const auto bucket_ms = static_cast<size_t>(spec.plan.timeline_bucket /
                                               Millis(1));
    std::printf("%-6s", "t[ms]");
    for (const Group& group : groups) std::printf(" %10s", group.name.c_str());
    std::printf("\n");
    for (size_t b = 0; b < static_cast<size_t>(spec.plan.measure /
                                               spec.plan.timeline_bucket);
         ++b) {
      std::printf("%-6zu", b * bucket_ms);
      for (const Group& group : groups) {
        std::printf(" %10.1f", group.reports[0].timeline.KreqsAt(b));
      }
      std::printf("\n");
    }
    std::printf("\nMeasured out-of-service window after the crash:\n");
    for (const Group& group : groups) {
      const double outage = ToMillis(
          OutageAfter(group.completions[0], spec.schedule.front().at));
      std::printf("  %-10s %5.1f ms\n", group.name.c_str(), outage);
      json.AddScalar("outage_ms", group.name, outage);
    }
    return 0;
  };
  plan.footer =
      "\nPaper reference (§6.3): Lion 15 ms, Dog 20 ms, Peacock 24 ms; BFT "
      "about twice the Lion outage.\n";
  return plan;
}

// --- Table 1 (§5.5) --------------------------------------------------------
// Communication phases, message complexity, receiving-network size and
// quorum size come from the protocol definitions; the measured columns
// count inter-replica traffic per consensus instance in an unbatched run
// with one client, which should track the paper's per-request counts:
//   Lion: 3N; Dog: N + (3m+1)^2 + (3m+1)N; Peacock: N + 2(3m+1)^2 +
//   (1+S)(3m+1); Paxos: 3N; PBFT: N + 2N^2.

Plan Table1(bool, int jobs) {
  Plan plan;
  plan.title = Format(
      "Table 1 reproduction (c=%d, m=%d, f=%d): analytic columns + measured "
      "inter-replica messages per consensus instance (%d jobs)\n\n",
      1, 1, 2, jobs);
  Section section;
  for (const std::string& system : scenario::PaperSystemNames()) {
    ScenarioSpec spec = EchoSystem(system, 1, 1, 0, 0, /*seed=*/5);
    spec.tuning.batch_max = 1;  // one request per instance, like §5.5
    spec.tuning.pipeline_max = 1;
    spec.tuning.checkpoint_period = 1 << 20;  // keep checkpoints out
    spec.clients = 1;
    spec.plan.warmup = Millis(100);
    spec.plan.measure = Millis(500);
    section.groups.push_back({system, "", {spec}});
  }
  plan.sections.push_back(std::move(section));
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    struct Analytic {
      const char* system;
      int phases;
      const char* messages;
      const char* receiving;
      const char* quorum;
    };
    static const Analytic kAnalytic[] = {
        {"BFT", 3, "O(n^2)", "3f+1", "2f+1"},
        {"S-UpRight", 3, "O(n^2)", "3m+2c+1", "2m+c+1"},
        {"Peacock", 3, "O(n^2)", "3m+1", "2m+1"},
        {"Dog", 2, "O(n^2)", "3m+1", "2m+1"},
        {"Lion", 2, "O(n)", "3m+2c+1", "2m+c+1"},
        {"CFT", 2, "O(n)", "2f+1", "f+1"}};
    std::printf("%-10s %-7s %-9s %-12s %-9s %-12s %-12s %-12s\n", "Protocol",
                "phases", "messages", "recv. netw.", "quorum", "msgs/inst",
                "bytes/inst", "wire B/inst");
    for (const Group& group : plan.sections[0].groups) {
      const Analytic& a = *std::find_if(
          std::begin(kAnalytic), std::end(kAnalytic),
          [&](const Analytic& row) { return group.name == row.system; });
      const ScenarioReport& report = group.reports[0];
      const auto per_instance = [&](uint64_t total) {
        return report.result.completed == 0
                   ? 0.0
                   : static_cast<double>(total) /
                         static_cast<double>(report.result.completed);
      };
      const double msgs = per_instance(report.net.replica_to_replica_messages);
      const double bytes = per_instance(report.net.replica_to_replica_bytes);
      // Payload plus framing (NetCounters::wire_bytes): the cost model's
      // own unit of offered traffic.
      const double wire =
          per_instance(report.net.replica_to_replica_wire_bytes);
      std::printf("%-10s %-7d %-9s %-12s %-9s %-12.1f %-12.0f %-12.0f\n",
                  a.system, a.phases, a.messages, a.receiving, a.quorum, msgs,
                  bytes, wire);
      json.AddScalar("msgs_per_instance", group.name, msgs);
      json.AddScalar("bytes_per_instance", group.name, bytes);
      json.AddScalar("wire_bytes_per_instance", group.name, wire);
    }
    return 0;
  };
  plan.footer =
      "\nPaper Table 1: Lion {2, O(n), 3m+2c+1, 2m+c+1}; Dog {2, O(n^2), "
      "3m+1, 2m+1}; Peacock {3, O(n^2), 3m+1, 2m+1}; Paxos {2, O(n), 2f+1, "
      "f+1}; PBFT {3, O(n^2), 3f+1, 2f+1}; UpRight {2*, O(n^2), 3m+2c+1, "
      "2m+c+1}  (*speculative; our S-UpRight runs the pessimistic 3-phase "
      "variant the paper actually benchmarks).\n";
  return plan;
}

// --- Ablations of the design choices DESIGN.md calls out -------------------
//  A. Request batching (BFT-SMaRt style): the paper's throughput levels are
//     unreachable without it.
//  B. Unsigned Lion accepts (§5.1): what the trusted primary saves over
//     signed accepts.
//  C. Cross-cloud distance (§5.3): as the private/public gap grows, modes
//     that keep agreement inside the public cloud overtake Lion, whose
//     every phase crosses the clouds.
//  D. Dog proxy-set size: 3m+1 proxies are enough and "any additional
//     replicas may degrade the performance".

Plan Ablation(bool quick, int jobs) {
  const SimTime measure = quick ? Millis(250) : Millis(600);
  const int clients = quick ? 32 : 64;
  const auto lion_base = [&](SeeMoReMode mode, int population) {
    ScenarioBuilder builder(scenario::PaperBaseSpec(/*seed=*/11));
    builder.SeeMoRe(mode, 1, 1)
        .Echo(0, 0)
        .Clients(population)
        .Warmup(Millis(150))
        .Measure(measure);
    return builder;
  };
  Plan plan;
  Section batching{
      "batching",
      Format("=== Ablation A: batching (Lion, c=m=1, %d clients, %d jobs) "
             "===\n",
             clients, jobs),
      {}};
  for (int batch : {1, 4, 16, 64, 512}) {
    ScenarioBuilder builder = lion_base(SeeMoReMode::kLion, clients);
    builder.Batching(batch, batch == 1 ? 8 : 2);
    batching.groups.push_back({Format("batch_%d_kreqs", batch),
                               Format("batch_max=%-4d", batch),
                               {builder.spec()}});
  }
  Section accepts{"lion_accepts",
                  Format("\n=== Ablation B: unsigned vs signed Lion accepts "
                         "(§5.1, %d clients) ===\n",
                         clients),
                  {}};
  for (bool signed_accepts : {false, true}) {
    ScenarioBuilder builder = lion_base(SeeMoReMode::kLion, clients);
    builder.LionSignAccepts(signed_accepts);
    // A realistic asymmetric-crypto price: the trusted-primary saving is
    // precisely not paying it.
    builder.mutable_spec().costs.sign = Micros(18);
    builder.mutable_spec().costs.verify = Micros(45);
    const char* name = signed_accepts ? "signed" : "unsigned";
    accepts.groups.push_back({std::string(name) + "_kreqs",
                              Format("accepts=%-8s", name),
                              {builder.spec()}});
  }
  Section distance{
      "cross_cloud_distance",
      Format("\n=== Ablation C: cross-cloud distance (c=m=1, %d clients) "
             "===\n  %-18s %10s %10s %10s   (mean latency ms)\n",
             clients, "cross-cloud (ms)", "Lion", "Dog", "Peacock"),
      {}};
  for (int64_t cross_us : {90, 1000, 3000, 8000}) {
    Group row{std::to_string(cross_us),
              Format("%-18.2f", static_cast<double>(cross_us) / 1000.0),
              {}};
    for (SeeMoReMode mode :
         {SeeMoReMode::kLion, SeeMoReMode::kDog, SeeMoReMode::kPeacock}) {
      ScenarioBuilder builder = lion_base(mode, quick ? 8 : 16);
      // Clients sit next to the public cloud (the paper's motivating case).
      builder.CrossCloudLink(Micros(cross_us), Micros(cross_us / 10))
          .ClientLink(Micros(100), Micros(25));
      row.specs.push_back(builder.spec());
    }
    distance.groups.push_back(std::move(row));
  }
  Section dog_size{"dog_public_size",
                   "\n=== Ablation D: Dog public-cloud size (m=1 => 3m+1=4 "
                   "proxies; extra rented nodes are passive) ===\n",
                   {}};
  for (int p : {4, 6, 8, 12}) {
    ScenarioBuilder builder = lion_base(SeeMoReMode::kDog, clients);
    builder.CloudSizes(-1, p);
    dog_size.groups.push_back(
        {Format("p%d_kreqs", p),
         Format("P=%-3d (N=%d) ", p, builder.spec().ResolvedConfig().n()),
         {builder.spec()}});
  }
  plan.sections = {std::move(batching), std::move(accepts),
                   std::move(distance), std::move(dog_size)};
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    for (const Section& section : plan.sections) {
      std::printf("%s", section.title.c_str());
      if (section.label != "cross_cloud_distance") {
        for (const Group& group : section.groups) {
          const RunResult& result = group.reports[0].result;
          PrintRow(group.row, result);
          json.AddScalar(section.label, group.name, result.throughput_kreqs);
        }
        continue;
      }
      for (const Group& group : section.groups) {
        std::printf("  %s", group.row.c_str());
        for (size_t i = 0; i < group.specs.size(); ++i) {
          const double latency = group.reports[i].result.mean_latency_ms;
          std::printf(" %10.2f", latency);
          json.AddScalar(section.label,
                         std::string(scenario::SeeMoReModeToken(
                             group.specs[i].mode)) +
                             "_" + group.name + "us_latency_ms",
                         latency);
        }
        std::printf("\n");
      }
      std::printf(
          "  (expected: Lion's latency grows with every cross-cloud phase; "
          "Peacock pays the gap once, so it wins at large distances — "
          "§5.3)\n");
    }
    return 0;
  };
  return plan;
}

// --- Pipeline depth x batch size -------------------------------------------
// Every protocol's primary paces proposals through the shared
// PrimaryPipeline, so for each §6 system this sweeps pipeline_max x
// batch_max at 64 closed-loop clients. The plan's check: for Lion and BFT,
// committed throughput rises with pipeline depth at some batch_max >= 4.
// (Not necessarily at every batch size: with a fixed population a deep
// pipeline drains the queue into partial batches.)

Plan Pipeline(bool quick, int jobs) {
  Plan plan;
  plan.title = Format(
      "Pipeline depth x batch size sweep (unified consensus core, %d jobs)\n",
      jobs);
  const std::vector<int> depths =
      quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> batches =
      quick ? std::vector<int>{4} : std::vector<int>{1, 4, 16};
  for (const char* system : {"Lion", "Dog", "Peacock", "BFT", "S-UpRight",
                             "CFT"}) {
    Section section{system, "", {}};
    for (int batch : batches) {
      Group group{Format("batch%d", batch), "", {}};
      for (int depth : depths) {
        ScenarioSpec spec = EchoSystem(system, 1, 1);
        spec.tuning.batch_max = batch;
        spec.tuning.pipeline_max = depth;
        spec.clients = 64;
        spec.plan.warmup = quick ? Millis(60) : Millis(100);
        spec.plan.measure = quick ? Millis(200) : Millis(400);
        group.specs.push_back(std::move(spec));
      }
      section.groups.push_back(std::move(group));
    }
    plan.sections.push_back(std::move(section));
  }
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    int failures = 0;
    for (const Section& section : plan.sections) {
      const char* system = section.label.c_str();
      for (const Group& group : section.groups) {
        for (size_t i = 0; i < group.specs.size(); ++i) {
          const scenario::TuningSpec& tuning = group.specs[i].tuning;
          const RunResult& r = group.reports[i].result;
          json.AddScalar(system,
                         Format("batch%d_depth%d_kreqs", tuning.batch_max,
                                tuning.pipeline_max),
                         r.throughput_kreqs);
          std::printf("%-10s batch=%-3d depth=%-2d  %7.2f kreq/s  "
                      "lat(mean/p50/p99)=%6.2f/%6.2f/%6.2f ms\n",
                      system, tuning.batch_max, tuning.pipeline_max,
                      r.throughput_kreqs, r.mean_latency_ms, r.p50_latency_ms,
                      r.p99_latency_ms);
        }
        json.AddCurve(system, group.name, group.Curve());
      }
      bool helped_at_4plus = false;
      for (const Group& group : section.groups) {
        // Depths ascend from 1: did the deepest pipeline beat depth 1?
        const std::vector<RunResult> curve = group.Curve();
        const bool helped =
            curve.back().throughput_kreqs > curve.front().throughput_kreqs;
        json.AddScalar(system, group.name + "_depth_helps",
                       helped ? 1.0 : 0.0);
        if (group.specs[0].tuning.batch_max >= 4 && helped) {
          helped_at_4plus = true;
        }
      }
      if (!helped_at_4plus &&
          (section.label == "Lion" || section.label == "BFT")) {
        std::fprintf(stderr,
                     "FAIL: %s: pipeline depth did not increase committed "
                     "throughput at any batch_max >= 4\n",
                     system);
        ++failures;
      }
    }
    return failures == 0 ? 0 : 1;
  };
  return plan;
}

// --- Durability -------------------------------------------------------------
//  A. Fsync-batch sweep: Lion (c=m=1) under steady load with the durable
//     store off, then on at fsync_interval 1 (one modeled fsync per
//     committed batch) up to 512 (group commit, converging on the
//     write-cost floor).
//  B. Restart cost: one kill-and-restart run per fsync interval, with the
//     recovery inside the measurement window.

Plan Durability(bool quick, int jobs) {
  const SimTime measure = quick ? Millis(250) : Millis(600);
  const int clients = quick ? 32 : 64;
  Plan plan;
  Section sweep{"fsync_sweep",
                Format("=== Durability A: fsync-batch sweep (Lion, c=m=1, %d "
                       "clients, %d jobs) ===\n",
                       clients, jobs),
                {}};
  Section restart{"restart",
                  "=== Durability B: kill-and-restart mid-measurement ===\n",
                  {}};
  for (int interval : {0, 1, 8, 64, 512}) {  // 0: durability off
    ScenarioBuilder builder(scenario::PaperBaseSpec(/*seed=*/29));
    builder.SeeMoRe(SeeMoReMode::kLion, 1, 1)
        .Kv(128, 0.5)
        .Clients(clients)
        .CheckpointPeriod(64)
        .Warmup(Millis(150))
        .Measure(measure);
    const std::string label =
        interval == 0 ? "off" : "fsync=" + std::to_string(interval);
    const std::string row = Format("%-10s", label.c_str());
    if (interval > 0) builder.Durability(interval, 256 * 1024);
    sweep.groups.push_back({label, row, {builder.spec()}});
    if (interval == 0) continue;  // a restart needs the durable store
    builder.Name("restart-" + label)
        .CrashAt(Millis(180), 1)
        .RestartAt(Millis(280), 1)
        .Drain(Millis(250))
        .CheckConvergence();
    restart.groups.push_back({label, row, {builder.spec()}});
  }
  plan.sections = {std::move(sweep), std::move(restart)};
  plan.print = [](const Plan& plan, BenchResultsJson& json) {
    for (const Section& section : plan.sections) {
      std::printf("%s", section.title.c_str());
      for (const Group& group : section.groups) {
        const ScenarioReport& report = group.reports[0];
        PrintRow(group.row, report.result,
                 section.label == "restart"
                     ? (report.ok() ? "  converged" : "  DIVERGED")
                     : Format("  p99=%.2f ms", report.result.p99_latency_ms));
        json.AddCurve(section.label, group.name, {report.result});
      }
    }
    return 0;
  };
  return plan;
}

// --- §4 public-cloud sizing ------------------------------------------------
// The sizing methods, including the paper's worked example (S=2, c=1,
// alpha=0.3 => rent 10 nodes, N=12), over the feasible band c < S < 2c+1,
// alpha < 1/3. Analytic only: no runs, no JSON.

void PrintSize(const SizingResult& r) {
  if (r.feasible) {
    std::printf("  %6d", r.public_nodes);
  } else {
    std::printf("  %6s", "-");
  }
}

int PrintSizing(const Plan&, BenchResultsJson&) {
  std::printf("Public-cloud sizing (paper §4)\n\n");
  std::printf("Worked example: S=2, c=1, alpha=0.3\n");
  const SizingResult example = PublicCloudSizeByRatio(2, 1, 0.3);
  std::printf("  -> rent P=%d public nodes, network N=%d (%s)\n\n",
              example.public_nodes, example.network_size,
              example.explanation.c_str());

  std::printf("Method 1 (Eq. 2): P = ceil((S-(2c+1))/(3a-1))\n");
  std::printf("%-4s %-4s", "S", "c");
  const double alphas[] = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  for (double alpha : alphas) std::printf("  a=%.2f", alpha);
  std::printf("\n");
  for (int c = 1; c <= 3; ++c) {
    for (int s = c + 1; s <= 2 * c; ++s) {
      std::printf("%-4d %-4d", s, c);
      for (double alpha : alphas) {
        PrintSize(PublicCloudSizeByRatio(s, c, alpha));
      }
      std::printf("\n");
    }
  }

  std::printf("\nMethod 1 extended (Eq. 3) with crash ratio beta, S=2, c=1:\n");
  std::printf("%-8s", "alpha");
  const double betas[] = {0.0, 0.05, 0.10, 0.15};
  for (double beta : betas) std::printf("  b=%.2f", beta);
  std::printf("\n");
  for (double alpha : {0.10, 0.15, 0.20, 0.25}) {
    std::printf("%-8.2f", alpha);
    for (double beta : betas) {
      PrintSize(PublicCloudSizeByRatios(2, 1, alpha, beta));
    }
    std::printf("\n");
  }

  std::printf(
      "\nMethod 2 (explicit concurrent-failure bound): P = (3M+2c+1)-S\n");
  std::printf("%-4s %-4s %-4s %-8s %-8s\n", "S", "c", "M", "P", "N");
  for (int c = 1; c <= 2; ++c) {
    for (int s = c + 1; s <= 2 * c; ++s) {
      for (int M = 1; M <= 3; ++M) {
        const SizingResult r = PublicCloudSizeByBound(s, c, M);
        std::printf("%-4d %-4d %-4d %-8d %-8d\n", s, c, M, r.public_nodes,
                    r.network_size);
      }
    }
  }

  std::printf(
      "\nMethod 2 extended (public crash bound C): P = (3M+2C+2c+1)-S, "
      "S=2, c=1\n");
  std::printf("%-4s %-4s %-8s %-8s\n", "M", "C", "P", "N");
  for (int M = 1; M <= 2; ++M) {
    for (int C = 0; C <= 2; ++C) {
      const SizingResult r = PublicCloudSizeByBounds(2, 1, M, C);
      std::printf("%-4d %-4d %-8d %-8d\n", M, C, r.public_nodes,
                  r.network_size);
    }
  }

  std::printf(
      "\nBoundary behaviour:\n"
      "  S >= 2c+1          -> %s\n"
      "  S <= c             -> %s\n"
      "  alpha >= 1/3       -> %s\n",
      PublicCloudSizeByRatio(3, 1, 0.3).explanation.c_str(),
      PublicCloudSizeByRatio(1, 1, 0.3).explanation.c_str(),
      PublicCloudSizeByRatio(2, 1, 0.4).explanation.c_str());
  return 0;
}

Plan Sizing(bool, int) {
  Plan plan;
  plan.print = PrintSizing;
  return plan;
}

struct NamedPlan {
  const char* name;
  Plan (*make)(bool quick, int jobs);
};

constexpr NamedPlan kPlans[] = {
    {"fig2", Fig2},         {"fig3", Fig3},          {"fig4", Fig4},
    {"table1", Table1},     {"ablation", Ablation},  {"pipeline", Pipeline},
    {"durability", Durability}, {"sizing", Sizing}};

}  // namespace

int RunBenchPlan(const std::string& name, bool quick, int jobs) {
  const NamedPlan* named = std::find_if(
      std::begin(kPlans), std::end(kPlans),
      [&](const NamedPlan& plan) { return name == plan.name; });
  if (named == std::end(kPlans)) {
    std::string names;
    for (const NamedPlan& plan : kPlans) names += std::string(" ") + plan.name;
    std::fprintf(stderr, "unknown --bench=%s; plans:%s\n", name.c_str(),
                 names.c_str());
    return 2;
  }
  Plan plan = named->make(quick, jobs);
  std::printf("%s", plan.title.c_str());

  std::vector<ScenarioSpec> specs;
  for (const Section& section : plan.sections) {
    for (const Group& group : section.groups) {
      specs.insert(specs.end(), group.specs.begin(), group.specs.end());
    }
  }
  // Point i's hooks write only completions[i], so workers share no state.
  std::vector<std::vector<SimTime>> completions(specs.size());
  Result<std::vector<ScenarioReport>> reports = scenario::RunMany(
      specs, jobs, [&](size_t i) {
        scenario::ScenarioHooks hooks;
        if (plan.record_completions) {
          hooks.on_complete = [&completions, i](SimTime when, SimTime) {
            completions[i].push_back(when);
          };
        }
        return hooks;
      });
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    return 2;
  }
  size_t next = 0;
  for (Section& section : plan.sections) {
    for (Group& group : section.groups) {
      for (size_t i = 0; i < group.specs.size(); ++i, ++next) {
        group.reports.push_back(std::move((*reports)[next]));
        group.completions.push_back(std::move(completions[next]));
      }
    }
  }

  BenchResultsJson json(name);
  const int status = plan.print(plan, json);
  if (!specs.empty()) json.Write();
  std::printf("%s", plan.footer.c_str());
  return status;
}

}  // namespace seemore
