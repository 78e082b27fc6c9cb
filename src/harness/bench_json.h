// BENCH_<name>.json: the machine-readable result file every benchmark
// writes next to its human-readable tables, so the performance trajectory
// can be tracked across revisions. Layout: {"bench": name, "sections":
// [{"label", "curves": [{"system", "points": [RunResult...]}], "scalars":
// [{"name", "value"}]}]}, sections in order of first use.

#ifndef SEEMORE_HARNESS_BENCH_JSON_H_
#define SEEMORE_HARNESS_BENCH_JSON_H_

#include <string>
#include <vector>

#include "harness/runner.h"
#include "util/json.h"

namespace seemore {

/// Accumulates results and writes BENCH_<name>.json. All result emission
/// goes through RunResult::ToJson — benches never hand-format result fields.
class BenchResultsJson {
 public:
  explicit BenchResultsJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record one curve (one system's client sweep) under a section label.
  void AddCurve(const std::string& section, const std::string& system,
                const std::vector<RunResult>& curve);

  /// Record a single named scalar (a peak, one ablation point, ...).
  void AddScalar(const std::string& section, const std::string& name,
                 double value);

  /// Write BENCH_<bench_name>.json in the working directory and print
  /// "wrote <path>". An I/O failure is reported on stderr but not fatal —
  /// the human-readable tables are already printed.
  void Write() const;

 private:
  Json& SectionFor(const std::string& label);

  std::string bench_name_;
  std::vector<Json> sections_;
};

}  // namespace seemore

#endif  // SEEMORE_HARNESS_BENCH_JSON_H_
