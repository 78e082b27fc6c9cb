// Shared types of the repository benchmark (see README.md): the span
// recorder the traced run keeps in memory, the CPU split taken around each
// run call, one run's outcome, and the layer probes.

#ifndef SEEMORE_PERFBENCH_BENCH_H_
#define SEEMORE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rt/launcher.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "util/histogram.h"
#include "util/json.h"

namespace seemore {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An integer counter field of a runtime report (0 when absent).
inline uint64_t CounterOf(const Json& object, const char* key) {
  const Json* field = object.Find(key);
  return field != nullptr && field->is_number()
             ? static_cast<uint64_t>(field->AsInt())
             : 0;
}

/// Spans of the benchmark's own calls into the layers: name, start, end and
/// the enclosing span (-1 for a root). Kept in memory; written at exit.
class SpanRecorder {
 public:
  int Begin(std::string name) {
    spans_.push_back({std::move(name), NowNs(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }
  /// A span whose bounds were observed rather than bracketed (the launcher's
  /// readiness line), parented under the open span.
  void Add(std::string name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({std::move(name), start_ns, end_ns, current_});
  }
  Json ToJson() const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null recorder makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
    if (recorder_ != nullptr) id_ = recorder_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
};

/// User/system CPU seconds of this process and of its reaped children.
struct CpuSplit {
  double self_user = 0, self_sys = 0, child_user = 0, child_sys = 0;

  static CpuSplit Now();
  CpuSplit operator-(const CpuSplit& o) const {
    return {self_user - o.self_user, self_sys - o.self_sys,
            child_user - o.child_user, child_sys - o.child_sys};
  }
  CpuSplit& operator+=(const CpuSplit& o) {
    self_user += o.self_user;
    self_sys += o.self_sys;
    child_user += o.child_user;
    child_sys += o.child_sys;
    return *this;
  }
  double total() const { return self_user + self_sys + child_user + child_sys; }
  Json ToJson() const;
};

/// One call into a runtime, judged by the liveness-aware gate.
struct RunOutcome {
  bool ok = false;
  std::string failure;  // why the gate refused the run (empty when ok)

  /// Measure window, as the runtime reports it (real time for tcp, virtual
  /// time for sim).
  uint64_t completed = 0;
  uint64_t retransmissions = 0;
  double window_s = 0;
  double p50_ms = 0, p90_ms = 0;
  /// Every completion latency (sim only: the engine's on_complete hook).
  Histogram latencies;

  /// Whole-run work and cost, as seen from outside the call.
  uint64_t executed = 0;  // requests the cluster executed (max over replicas)
  double call_s = 0;      // duration of the run call
  double setup_s = 0;     // call duration minus the run window it reports
  CpuSplit cpu;

  /// Replica counters.
  uint64_t batches = 0;
  uint64_t messages_handled = 0;  // summed over replicas
  uint64_t primary_messages = 0;
  uint64_t view_changes = 0;
  uint64_t equivocations = 0;

  /// tcp: merged TcpCounters. sim: NetCounters + simulator events.
  Json net = Json::Object();
  uint64_t sim_events = 0;
  double sim_window_host_s = 0;
  /// failover-sim: virtual ms from the crash to service back at half the
  /// pre-crash rate (-1 = never came back).
  double outage_ms = -1;

  /// Per-replica counters as the runtime reported them (trace file).
  Json replicas = Json::Array();
};

/// Where tcp runs put their per-run scratch directories, and which binary
/// they spawn.
struct TcpEnv {
  std::string node_binary;
  std::string run_root;
};

RunOutcome RunTcp(const scenario::ScenarioSpec& spec, const TcpEnv& env,
                  SpanRecorder* spans);
RunOutcome RunSim(const scenario::ScenarioSpec& spec, SpanRecorder* spans);

/// The message shapes a workload puts through the layers.
struct ProbeShape {
  uint32_t request_kb = 0;
  int batch_requests = 1;  // requests per proposal, as observed
  SeeMoReMode mode = SeeMoReMode::kLion;
};

/// Median host time of the layers' public functions on the workload's
/// message shapes, name -> value (ns, except rt.loopback_rtt_us in µs).
std::vector<std::pair<std::string, double>> RunProbes(const ProbeShape& shape,
                                                      SpanRecorder* spans);

/// A free block of `count` consecutive localhost ports (nothing listening).
/// Each call moves past the previous block, so repeated runs never reuse a
/// port a previous run just released.
uint16_t FreshPortBlock(int count);
/// True when nothing listens on any port of [base, base + count).
bool PortsReleased(uint16_t base, int count);

}  // namespace perfbench
}  // namespace seemore

#endif  // SEEMORE_PERFBENCH_BENCH_H_
