// perfbench: the repository benchmark's measuring program (README.md).
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --node-binary=<path> --run-root=<dir> [--git-sha=<sha>]
//
// Runs the workload's timed runs and prints every end-to-end metric; with
// --trace=1 it then makes one traced run, probes the layers, prints every
// per-layer metric and writes the spans and counters to
// <run-root>/trace-<workload>-seed<n>.json. The last stdout line is the
// result object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "crypto/sha256.h"
#include "scenario/builder.h"
#include "scenario/registry.h"
#include "storage/crc32c.h"
#include "util/rng.h"

namespace seemore {
namespace perfbench {
namespace {

struct Workload {
  const char* name;
  bool tcp;
  SeeMoReMode mode;
  uint32_t request_kb;
  /// The layer whose work the workload exercises, and the one it bypasses.
  const char* note;
};

const Workload kWorkloads[] = {
    {"lion-echo-tcp", true, SeeMoReMode::kLion, 0,
     "exercises rt per-message cost (syscalls, wakeups, dispatch, MACs); "
     "bypasses storage and batching"},
    {"peacock-4k-tcp", true, SeeMoReMode::kPeacock, 4,
     "exercises consensus/seemore three-phase agreement and per-byte work; "
     "bypasses storage and batching"},
    {"failover-sim", false, SeeMoReMode::kLion, 0,
     "exercises sim, batching, view change and storage; bypasses rt"},
};

/// Timed tcp runs: as many ~1 s measure windows as fit the time, at least
/// three; their medians give the metrics, so a burst of contention on the
/// host spoils one run rather than the figure.
constexpr double kTcpWindowS = 1.0;
constexpr double kTcpOverheadS = 0.45;  // warmup, drain, spawn and reap
constexpr int kMinTcpRuns = 3;
/// Simulated runs per invocation whose virtual metrics are reported: a
/// fixed count, so one seed always gives bit-identical virtual figures.
constexpr int kSimRuns = 32;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string node_binary;
  std::string run_root;
  std::string git_sha = "unknown";
  int pinned_cpu = -1;
  double loadavg_at_start = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "node-binary") {
      args->node_binary = value;
    } else if (key == "run-root") {
      args->run_root = value;
    } else if (key == "git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->run_root.empty() &&
         args->seconds > 0;
}

scenario::ScenarioSpec TcpSpec(const Workload& w, uint64_t seed,
                               SimTime measure) {
  Result<scenario::ScenarioSpec> base = scenario::PaperSystemSpec(
      w.mode == SeeMoReMode::kPeacock ? "Peacock" : "Lion", 1, 1,
      seed & (~0ULL >> 1));  // specs take 63-bit seeds
  scenario::ScenarioBuilder builder(*std::move(base));
  builder.Name(w.name)
      .Clients(2)
      .Echo(w.request_kb, 0)
      .Warmup(Millis(150))
      .Measure(measure)
      .Drain(Millis(150))
      .CheckConvergence();
  return builder.spec();
}

/// The fig4-primary-crash calibration (paper cost model and network, 48
/// clients, aggressive failure detector), with checkpoint period 512, a WAL
/// synced after every commit, and the primary crashed 30% into a 200 ms
/// measure window.
scenario::ScenarioSpec FailoverSpec(uint64_t seed) {
  Result<scenario::ScenarioSpec> base = scenario::Fig4SystemSpec("Lion", 48);
  scenario::ScenarioBuilder builder(*std::move(base));
  const SimTime measure = Millis(200);
  builder.Name("failover-sim")
      .Seed(seed)
      .CheckpointPeriod(512)
      .Durability(/*fsync_interval=*/1)
      .Measure(measure);
  for (scenario::ScenarioEvent& event : builder.mutable_spec().schedule) {
    event.at = measure * 3 / 10;
  }
  return builder.spec();
}

/// Pins this process, and so every node process it starts, to the highest
/// CPU it may run on; returns that CPU (-1 when pinning failed). On a shared
/// multi-vCPU host, wakeups that cross vCPUs made tcp figures spread more
/// between invocations than with the whole cluster on one CPU (README.md
/// "Steadiness"), and throughput then reads the cluster's per-request CPU
/// cost.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

uint64_t SubSeed(uint64_t seed, int index) {
  uint64_t state = seed * 0x100000001b3ULL + static_cast<uint64_t>(index);
  return SplitMix64(state) >> 1;  // specs take 63-bit seeds
}

const char* ShaName(Sha256::Impl impl) {
  switch (impl) {
    case Sha256::Impl::kPortable: return "portable";
    case Sha256::Impl::kAvx2: return "avx2";
    case Sha256::Impl::kShaNi: return "sha-ni";
  }
  return "unknown";
}

Json Provenance(const Args& args) {
  Json p = Json::Object();
  p.Set("workload", args.workload);
  p.Set("seed", args.seed);
  p.Set("seconds", args.seconds);
  p.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  p.Set("loadavg_1m_at_start", args.loadavg_at_start);
  p.Set("sha256_kernel", ShaName(Sha256::ActiveImpl()));
  p.Set("crc32c_kernel",
        storage::Crc32cActiveImpl() == storage::Crc32cImpl::kSse42
                             ? "sse4.2"
                             : "portable");
  p.Set("build_type", PERFBENCH_BUILD_TYPE);
  p.Set("git_sha", args.git_sha);
  p.Set("pinned_cpu", args.pinned_cpu);
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Counts and costs pooled over several runs.
struct Pool {
  int runs = 0;
  int failed_runs = 0;
  uint64_t failed_requests = 0;
  std::vector<std::string> failures;
  uint64_t completed = 0;
  uint64_t retransmissions = 0;
  double window_s = 0;
  std::vector<double> kreqs, p50, p90, setup, outage, cpu_us_per_req;
  Histogram latencies;

  /// Adds a run; a run the gate refused counts as failed, not as a number.
  void Add(const RunOutcome& run, bool measured) {
    ++runs;
    if (!run.ok) {
      ++failed_runs;
      failed_requests += run.completed;
      failures.push_back(run.failure);
      return;
    }
    setup.push_back(run.setup_s);
    cpu_us_per_req.push_back(Ratio(run.cpu.total() * 1e6, run.executed));
    if (!measured) return;
    completed += run.completed;
    retransmissions += run.retransmissions;
    window_s += run.window_s;
    kreqs.push_back(Ratio(run.completed, run.window_s) / 1000.0);
    p50.push_back(run.p50_ms);
    p90.push_back(run.p90_ms);
    latencies.Merge(run.latencies);
    if (run.outage_ms >= 0) outage.push_back(run.outage_ms);
  }
  /// Median over runs: a burst of contention on the host inflates one run,
  /// not the figure.
  double CpuUsPerReq() const { return Median(cpu_us_per_req); }
};

/// Per-layer counters pooled over the traced run(s).
struct LayerTotals {
  RunOutcome sum;  // counts summed; net fields summed by key
  int runs = 0;

  void Add(const RunOutcome& run) {
    ++runs;
    sum.completed += run.completed;
    sum.retransmissions += run.retransmissions;
    sum.executed += run.executed;
    sum.cpu += run.cpu;
    sum.batches += run.batches;
    sum.messages_handled += run.messages_handled;
    sum.primary_messages += run.primary_messages;
    sum.view_changes += run.view_changes;
    sum.equivocations += run.equivocations;
    sum.sim_events += run.sim_events;
    sum.sim_window_host_s += run.sim_window_host_s;
    for (const auto& [key, value] : run.net.members()) {
      if (!value.is_number()) continue;
      const Json* have = sum.net.Find(key);
      sum.net.Set(key, (have != nullptr ? have->AsInt() : 0) + value.AsInt());
    }
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& workload)
      : args_(args), workload_(workload) {}

  int Run();

 private:
  scenario::ScenarioSpec Spec(int index) const;
  RunOutcome RunOnce(int index, SpanRecorder* spans) const;
  void TimedRuns();
  void TracedRun();
  void PrintResult() const;

  const Args& args_;
  const Workload& workload_;
  Pool timed_;
  Pool traced_;
  LayerTotals layers_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  SpanRecorder spans_;
};

int TcpRuns(double seconds) {
  return std::max(kMinTcpRuns,
                  static_cast<int>(seconds / (kTcpWindowS + kTcpOverheadS)));
}

SimTime TcpMeasure(double seconds) {
  const double window =
      std::max(0.2, seconds / TcpRuns(seconds) - kTcpOverheadS);
  return static_cast<SimTime>(window * 1e9);
}

scenario::ScenarioSpec Bench::Spec(int index) const {
  return workload_.tcp
             ? TcpSpec(workload_, args_.seed, TcpMeasure(args_.seconds))
             : FailoverSpec(SubSeed(args_.seed, index % kSimRuns));
}

RunOutcome Bench::RunOnce(int index, SpanRecorder* spans) const {
  if (workload_.tcp) {
    return RunTcp(Spec(index), TcpEnv{args_.node_binary, args_.run_root},
                  spans);
  }
  return RunSim(Spec(index), spans);
}

void Bench::TimedRuns() {
  const int64_t start = NowNs();
  if (workload_.tcp) {
    // Failed runs can take far longer than their window; stop adding runs
    // well before the caller's time limit.
    const int64_t budget = static_cast<int64_t>(3 * args_.seconds * 1e9);
    for (int i = 0; i < TcpRuns(args_.seconds) && NowNs() - start < budget;
         ++i) {
      const RunOutcome run = RunOnce(i, nullptr);
      std::printf("run %d: %.3f kreq/s  p50 %.4f ms  p90 %.4f ms  %.2f us/req "
                  "cpu  setup %.4f s%s%s\n",
                  i, Ratio(run.completed, run.window_s) / 1000.0, run.p50_ms,
                  run.p90_ms, Ratio(run.cpu.total() * 1e6, run.executed),
                  run.setup_s, run.ok ? "" : "  FAILED: ",
                  run.failure.c_str());
      timed_.Add(run, true);
    }
  } else {
    // The fixed set of runs gives the virtual figures; further passes over
    // the same seeds until the time is up only add host CPU and set-up
    // samples, which steadies cpu_us_per_req and setup_s.
    for (int i = 0; i < kSimRuns; ++i) timed_.Add(RunOnce(i, nullptr), true);
    for (int i = 0; NowNs() - start < static_cast<int64_t>(args_.seconds * 1e9);
         ++i) {
      timed_.Add(RunOnce(i, nullptr), false);
    }
  }

  // tcp: medians over runs. sim: every run is one virtual-time sample of
  // the same experiment, so the runs pool into one figure.
  double kreqs, p50, p90;
  if (workload_.tcp) {
    kreqs = Median(timed_.kreqs);
    p50 = Median(timed_.p50);
    p90 = Median(timed_.p90);
  } else {
    kreqs = Ratio(timed_.completed, timed_.window_s) / 1000.0;
    p50 = timed_.latencies.P50() / kNanosPerMilli;
    p90 = timed_.latencies.P90() / kNanosPerMilli;
  }
  end_to_end_ = {
      {"throughput_kreqs", kreqs, "kreq/s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p90_ms", p90, "ms"},
      {"cpu_us_per_req", timed_.CpuUsPerReq(), "us"},
      {"setup_s", Median(timed_.setup), "s"},
  };
  std::printf("timed: %d runs (%d failed), %llu latency samples over %.3f s "
              "of measure window\n",
              timed_.runs, timed_.failed_runs,
              static_cast<unsigned long long>(timed_.completed),
              timed_.window_s);
}

void Bench::TracedRun() {
  // What each traced run's runtime reported: per-replica counters, the
  // transport or network counters, the CPU split, and the hook data.
  Json runs_json = Json::Array();
  {
    ScopedSpan span(&spans_, "traced-run");
    const int runs = workload_.tcp ? 1 : kSimRuns;
    for (int i = 0; i < runs; ++i) {
      const RunOutcome run = RunOnce(i, &spans_);
      traced_.Add(run, true);
      if (run.ok) layers_.Add(run);
      Json r = Json::Object();
      r.Set("ok", run.ok);
      r.Set("failure", run.failure);
      r.Set("requests_executed", run.executed);
      r.Set("completed", run.completed);
      r.Set("retransmissions", run.retransmissions);
      r.Set("cpu_split", run.cpu.ToJson());
      r.Set("call_s", run.call_s);
      r.Set("setup_s", run.setup_s);
      r.Set("outage_ms", run.outage_ms);
      r.Set("counters", run.net);
      r.Set("replicas", run.replicas);
      runs_json.Append(std::move(r));
    }
  }
  const RunOutcome& t = layers_.sum;
  const double exec = static_cast<double>(t.executed);
  const double per_run = std::max(1, layers_.runs);
  const double reqs_per_batch = Ratio(exec, t.batches);
  const bool tcp = workload_.tcp;
  const auto tcp_only = [tcp](double v) { return tcp ? v : 0.0; };
  const auto sim_only = [tcp](double v) { return tcp ? 0.0 : v; };
  const Json& net = t.net;

  ProbeShape shape;
  shape.request_kb = workload_.request_kb;
  shape.batch_requests = std::max(1, static_cast<int>(std::lround(reqs_per_batch)));
  shape.mode = workload_.mode;
  std::map<std::string, double> probe;
  for (const auto& [name, value] : RunProbes(shape, &spans_)) {
    probe[name] = value;
  }

  const double writevs = CounterOf(net, "writev_syscalls");
  const double encodes = CounterOf(net, "multicast_encodes");
  const double aliased = CounterOf(net, "rx_frames_aliased");
  const double copied = CounterOf(net, "rx_frames_copied");
  const double msgs_per_req = Ratio(t.messages_handled, exec);
  const double untraced_cpu = timed_.CpuUsPerReq();
  const double traced_cpu = traced_.CpuUsPerReq();

  // Layer metrics that do not apply to the workload's runtime read 0.
  per_layer_ = {
      {"rt.sys_us_per_req",
       tcp_only(Ratio((t.cpu.self_sys + t.cpu.child_sys) * 1e6, exec)), "us"},
      {"rt.node_user_us_per_req",
       tcp_only(Ratio(t.cpu.child_user * 1e6, exec)), "us"},
      {"rt.read_syscalls_per_req", Ratio(CounterOf(net, "read_syscalls"), exec),
       "count"},
      {"rt.writev_syscalls_per_req", Ratio(writevs, exec), "count"},
      {"rt.frames_per_writev", Ratio(CounterOf(net, "frames_sent"), writevs),
       "count"},
      {"rt.bytes_sent_per_req",
       tcp_only(Ratio(CounterOf(net, "bytes_sent"), exec)), "bytes"},
      {"rt.multicast_reuse",
       Ratio(CounterOf(net, "multicast_enqueues"), encodes), "count"},
      {"rt.rx_aliased_frac", Ratio(aliased, aliased + copied), "fraction"},
      {"rt.dropped_frames",
       tcp_only(CounterOf(net, "dropped_no_connection") +
                CounterOf(net, "dropped_backpressure") +
                CounterOf(net, "dropped_node_down") +
                CounterOf(net, "fault_dropped_tx") +
                CounterOf(net, "fault_dropped_rx")),
       "count"},
      {"rt.loopback_rtt_us", probe["rt.loopback_rtt_us"], "us"},
      {"rt.frame_encode_ns", probe["rt.frame_encode_ns"], "ns"},
      {"smr.client_cpu_us_per_req",
       tcp_only(Ratio((t.cpu.self_user + t.cpu.self_sys) * 1e6, exec)), "us"},
      {"smr.retransmissions",
       static_cast<double>(t.retransmissions) / per_run, "count"},
      {"smr.execute_ns", probe["smr.execute_ns"], "ns"},
      {"failed_frac",
       Ratio(timed_.retransmissions, timed_.completed + timed_.retransmissions),
       "fraction"},
      {"outage_ms", sim_only(Median(timed_.outage)), "ms"},
      {"consensus.reqs_per_batch", reqs_per_batch, "count"},
      {"consensus.msgs_per_req", msgs_per_req, "count"},
      {"consensus.primary_msgs_per_req", Ratio(t.primary_messages, exec),
       "count"},
      {"seemore.view_changes", static_cast<double>(t.view_changes) / per_run,
       "count"},
      {"seemore.equivocations", static_cast<double>(t.equivocations), "count"},
      {"crypto.digest_ns", probe["crypto.digest_ns"], "ns"},
      {"crypto.sign_ns", probe["crypto.sign_ns"], "ns"},
      {"crypto.verify_ns", probe["crypto.verify_ns"], "ns"},
      {"wire.encode_ns", probe["wire.encode_ns"], "ns"},
      {"wire.decode_ns", probe["wire.decode_ns"], "ns"},
      {"storage.append_ns", probe["storage.append_ns"], "ns"},
      {"sim.events_per_req", sim_only(Ratio(t.sim_events, exec)), "count"},
      {"sim.host_ns_per_event",
       sim_only(Ratio(t.sim_window_host_s * 1e9, t.sim_events)), "ns"},
      {"net.msgs_per_req",
       sim_only(Ratio(CounterOf(net, "messages"), t.completed)), "count"},
      {"net.wire_bytes_per_req",
       sim_only(Ratio(CounterOf(net, "wire_bytes"), t.completed)), "bytes"},
      {"trace.overhead_cpu_us_per_req", traced_cpu - untraced_cpu, "us"},
  };

  // Per-request layer budgets: probe time x calls per request, where the
  // calls are inferred from the observed counts (README.md "Budgets"). The
  // remainder of cpu_us_per_req is what no probe accounts for.
  const double replicas = Spec(0).ResolvedConfig().n();
  const double batch = std::max(1.0, reqs_per_batch);
  std::vector<std::pair<std::string, double>> budget = {
      {"crypto.digest", probe["crypto.digest_ns"] * replicas / batch},
      {"crypto.mac", (probe["crypto.sign_ns"] + probe["crypto.verify_ns"]) *
                         msgs_per_req},
      {"wire.proposal", (probe["wire.encode_ns"] +
                         probe["wire.decode_ns"] * (replicas - 1)) /
                            batch},
      {"smr.execute", probe["smr.execute_ns"] * replicas},
      {"rt.frames", tcp_only(probe["rt.frame_encode_ns"] *
                             Ratio(CounterOf(net, "frames_sent"), exec))},
      {"storage.append",
       sim_only(probe["storage.append_ns"] * replicas / batch)},
  };
  double attributed = 0;
  for (auto& [layer, ns] : budget) {
    ns /= 1000.0;  // -> µs per request
    attributed += ns;
    std::printf("budget %-16s %10.3f us/req\n", layer.c_str(), ns);
  }
  std::printf("budget %-16s %10.3f us/req of %.3f us/req\n", "unattributed",
              untraced_cpu - attributed, untraced_cpu);
  per_layer_.push_back(
      {"budget.unattributed_us_per_req", untraced_cpu - attributed, "us"});

  Json trace = Json::Object();
  trace.Set("provenance", Provenance(args_));
  trace.Set("note", workload_.note);
  trace.Set("spans", spans_.ToJson());
  trace.Set("cpu_split", t.cpu.ToJson());
  trace.Set("requests_executed", t.executed);
  trace.Set("counters", net);
  trace.Set("runs", runs_json);
  Json layer_json = Json::Object();
  for (const Metric& metric : per_layer_) {
    layer_json.Set(metric.name, metric.value);
  }
  trace.Set("per_layer", std::move(layer_json));
  Json budget_json = Json::Object();
  for (const auto& [key, value] : budget) budget_json.Set(key, value);
  trace.Set("budget_us_per_req", std::move(budget_json));
  const std::string path = args_.run_root + "/trace-" + workload_.name +
                           "-seed" + std::to_string(args_.seed) + ".json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    const std::string text = trace.Dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("trace written to %s\n", path.c_str());
  }
}

void Bench::PrintResult() const {
  const Pool& pool = timed_;
  const auto& metrics = args_.trace ? per_layer_ : end_to_end_;
  bool finite = true;
  Json values = Json::Object();
  for (const Metric& metric : metrics) {
    finite = finite && std::isfinite(metric.value);
    Json entry = Json::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    values.Set(metric.name, std::move(entry));
  }
  const int failed_runs = pool.failed_runs + traced_.failed_runs;
  for (const std::string& why : pool.failures) {
    std::printf("FAILED run: %s\n", why.c_str());
  }
  for (const std::string& why : traced_.failures) {
    std::printf("FAILED traced run: %s\n", why.c_str());
  }
  Json result = Json::Object();
  result.Set("correct", failed_runs == 0 && finite);
  result.Set("attempted",
             std::max<uint64_t>(1, pool.completed + pool.failed_requests +
                                       static_cast<uint64_t>(failed_runs)));
  result.Set("failed", pool.failed_requests + traced_.failed_requests +
                           static_cast<uint64_t>(failed_runs));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
}

int Bench::Run() {
  std::printf("provenance %s\n", Provenance(args_).Dump().c_str());
  std::printf("workload %s: %s\n", workload_.name, workload_.note);
  TimedRuns();
  if (args_.trace) TracedRun();
  PrintResult();
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace seemore

int main(int argc, char** argv) {
  using namespace seemore::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --node-binary=PATH --run-root=DIR "
                 "[--git-sha=SHA]\n");
    return 2;
  }
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) {
      std::setvbuf(stdout, nullptr, _IOLBF, 0);
      args.pinned_cpu = PinToOneCpu();
      getloadavg(&args.loadavg_at_start, 1);
      return Bench(args, workload).Run();
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
