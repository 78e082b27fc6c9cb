// Shared plumbing for the paper-reproduction benchmarks (§6). Every bench
// expresses its experiments as scenario::ScenarioSpecs (the paper
// calibration lives in scenario/registry.h: PaperCostModel / PaperNetwork /
// PaperBaseSpec / PaperSystemSpec) and runs them through
// scenario::RunScenario, which builds each cluster from its spec.
//
// Topologies follow §6.1 exactly: for a failure budget (c, m), SeeMoRe and
// S-UpRight deploy 2c private + 3m+1 public nodes (N = 3m+2c+1), CFT uses
// 2f+1 and BFT 3f+1 with f = c+m. Both clouds sit in one datacenter (the
// paper uses a single AWS region), so all link classes share one profile.

#ifndef SEEMORE_BENCH_BENCH_COMMON_H_
#define SEEMORE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/builder.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace seemore {
namespace bench {

using scenario::ScenarioSpec;

/// Shared bench CLI conventions: --quick is argv[1] by tradition, --jobs=N
/// may appear anywhere (default: hardware concurrency). Every sweep bench
/// submits its points through scenario::RunMany with this many workers;
/// the results are bit-identical to --jobs=1.
inline int ParseJobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      const int jobs = std::atoi(argv[i] + 7);
      if (jobs > 0) return jobs;
    }
  }
  return ThreadPool::DefaultJobs();
}

/// RunMany or die — benches abort on engine errors (a bench's specs are
/// hard-coded, so a failure is a bug, not an input problem).
inline std::vector<scenario::ScenarioReport> RunAll(
    const std::vector<ScenarioSpec>& specs, int jobs) {
  Result<std::vector<scenario::ScenarioReport>> reports =
      scenario::RunMany(specs, jobs);
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    std::abort();
  }
  return *std::move(reports);
}

/// One line of Figure 2/3: a §6 system under test at failure budget (c, m).
/// Dies on an unknown system name (callers enumerate PaperSystemNames()).
inline ScenarioSpec SystemSpec(const std::string& system, int c, int m,
                               uint64_t seed = 17) {
  Result<ScenarioSpec> spec = scenario::PaperSystemSpec(system, c, m, seed);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::abort();
  }
  return *std::move(spec);
}

/// Sweep client counts for one system and return the RunResult curve. The
/// points are submitted through scenario::RunMany across `jobs` workers
/// (one fresh cluster per point either way; curves are identical for any
/// jobs value).
inline std::vector<RunResult> RunCurve(ScenarioSpec spec,
                                       const std::vector<int>& client_counts,
                                       SimTime warmup, SimTime measure,
                                       int jobs = 1) {
  spec.plan.warmup = warmup;
  spec.plan.measure = measure;
  spec.plan.sweep_clients = client_counts;
  std::vector<scenario::ScenarioReport> reports =
      RunAll(scenario::MakeSweepPoints(spec), jobs);
  std::vector<RunResult> curve;
  curve.reserve(reports.size());
  for (const scenario::ScenarioReport& report : reports) {
    curve.push_back(report.result);
  }
  return curve;
}

inline void PrintCurve(const std::string& label,
                       const std::vector<RunResult>& curve) {
  for (const RunResult& point : curve) {
    std::printf("%-10s %s\n", label.c_str(), point.ToString().c_str());
  }
}

inline double PeakThroughput(const std::vector<RunResult>& curve) {
  double best = 0.0;
  for (const RunResult& point : curve) {
    if (point.throughput_kreqs > best) best = point.throughput_kreqs;
  }
  return best;
}

/// p99 latency at the curve's peak-throughput point (tail latency where the
/// system is actually operated; 0 for an empty curve). Ties resolve to the
/// first point, matching PeakThroughput.
inline double P99AtPeak(const std::vector<RunResult>& curve) {
  double best = 0.0;
  double p99 = 0.0;
  for (const RunResult& point : curve) {
    if (point.throughput_kreqs > best) {
      best = point.throughput_kreqs;
      p99 = point.p99_latency_ms;
    }
  }
  return p99;
}

/// Accumulates results and writes a machine-readable BENCH_<name>.json so
/// the performance trajectory is tracked across PRs. All emission goes
/// through RunResult::ToJson — benches never hand-format result fields.
class BenchResultsJson {
 public:
  explicit BenchResultsJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record one curve (one system's client sweep) under a section label.
  void AddCurve(const std::string& section, const std::string& system,
                const std::vector<RunResult>& curve) {
    Json points = Json::Array();
    for (const RunResult& point : curve) {
      points.Append(point.ToJson());
    }
    Json entry = Json::Object();
    entry.Set("system", system);
    entry.Set("points", std::move(points));
    SectionFor(section).Find("curves")->Append(std::move(entry));
  }

  /// Record a single named scalar (a peak, one ablation point, ...).
  void AddScalar(const std::string& section, const std::string& name,
                 double value) {
    Json entry = Json::Object();
    entry.Set("name", name);
    entry.Set("value", value);
    SectionFor(section).Find("scalars")->Append(std::move(entry));
  }

  /// Write BENCH_<bench_name>.json in the working directory. Returns the
  /// path ("" on I/O failure, which is reported but not fatal — benchmarks
  /// still print their human-readable tables).
  std::string Write() const {
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return "";
    }
    Json root = Json::Object();
    root.Set("bench", bench_name_);
    Json section_array = Json::Array();
    for (const Json& section : sections_) {
      section_array.Append(section);
    }
    root.Set("sections", std::move(section_array));
    const std::string text = root.Dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return path;
  }

 private:
  Json& SectionFor(const std::string& label) {
    for (Json& section : sections_) {
      const Json* existing = section.Find("label");
      if (existing != nullptr && existing->AsString() == label) {
        return section;
      }
    }
    Json section = Json::Object();
    section.Set("label", label);
    section.Set("curves", Json::Array());
    section.Set("scalars", Json::Array());
    sections_.push_back(std::move(section));
    return sections_.back();
  }

  std::string bench_name_;
  std::vector<Json> sections_;
};

}  // namespace bench
}  // namespace seemore

#endif  // SEEMORE_BENCH_BENCH_COMMON_H_
