// What a closed-loop experiment measures, following the paper's methodology
// (§6): a population of clients, each waiting for its reply before issuing
// the next request; end-to-end throughput and latency after a warmup. The
// run itself is driven by scenario::RunScenario (scenario/engine.h).

#ifndef SEEMORE_HARNESS_RUNNER_H_
#define SEEMORE_HARNESS_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "util/json.h"

namespace seemore {

struct RunResult {
  int clients = 0;
  uint64_t completed = 0;
  double throughput_kreqs = 0.0;  // thousands of requests per second
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p90_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  uint64_t retransmissions = 0;
  /// Host wall-clock time the run took (real elapsed milliseconds, NOT
  /// simulated time) — what parallel sweeps shrink. The only
  /// non-deterministic field; excluded from bit-identical comparisons via
  /// ScenarioReport::DeterministicJson.
  double wall_time_ms = 0.0;

  std::string ToString() const;
  /// Machine-readable image; the single emission path for bench JSON
  /// (harness/bench_json.h BenchResultsJson) and scenario reports.
  Json ToJson() const;
};

/// Operation factory: n-th op issued by a client.
using OpFactory = std::function<Bytes(uint64_t)>;

/// The paper's x/y micro-benchmark: x-KB requests, y-KB replies (0/0, 0/4,
/// 4/0 in §6). Implemented as an ECHO op against the KV state machine.
OpFactory EchoWorkload(uint32_t request_kb, uint32_t reply_kb);

/// A mixed KV workload (PUT/GET over a keyspace) for the examples and
/// integration tests.
OpFactory KvWorkload(uint64_t seed, int key_space, double put_fraction);

/// Stop `clients` and aggregate what they measured over a window of length
/// `window`: the one RunResult formula of the sim engine and the tcp
/// launcher.
RunResult StopAndSummarize(const std::vector<SimClient*>& clients,
                           SimTime window);

/// Timeline of completions in fixed buckets (Figure 4).
struct ThroughputTimeline {
  SimTime bucket_width = Millis(1);
  std::vector<uint64_t> buckets;

  void Record(SimTime when);
  /// Throughput in Kreq/s for bucket i.
  double KreqsAt(size_t i) const;
};

}  // namespace seemore

#endif  // SEEMORE_HARNESS_RUNNER_H_
