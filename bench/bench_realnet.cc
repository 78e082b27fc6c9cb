// Real-network benchmark: the same ScenarioSpec executed twice — once under
// the deterministic simulator and once as actual seemore_node processes
// over localhost TCP (src/rt/) — with the results side by side. The point
// is honesty, not agreement: the simulator charges the calibrated §6 cost
// model on a virtual clock while the real cluster pays host CPU, real
// syscalls and kernel scheduling, so the two columns SHOULD differ; what
// must hold in both runtimes is safety (cross-replica agreement) and the
// protocols' relative ordering.
//
// Systems: SeeMoRe/Lion at (c=1, m=1) — a 6-process cluster — and PBFT at
// f=1 — 4 processes. Emits BENCH_realnet.json.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_json.h"
#include "rt/launcher.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "util/json.h"

namespace seemore {
namespace bench {
namespace {

/// The seemore_node binary: --node-binary=..., else a sibling of this
/// executable, else ../tools/seemore_node in the build tree.
std::string ResolveNodeBinary(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--node-binary=", 14) == 0) {
      return argv[i] + 14;
    }
  }
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string dir(buf);
  const size_t slash = dir.rfind('/');
  dir.resize(slash == std::string::npos ? 0 : slash);
  for (const char* rel : {"/seemore_node", "/../tools/seemore_node"}) {
    const std::string candidate = dir + rel;
    if (access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

struct RealnetSystem {
  std::string label;
  scenario::ScenarioSpec spec;
  uint16_t base_port;
};

void PrintSide(const char* runtime, const RunResult& result, bool ok) {
  std::printf("    %-4s  %8.2f kreq/s  p50 %6.2f ms  p99 %6.2f ms  "
              "completed %-7llu  %s\n",
              runtime, result.throughput_kreqs, result.p50_latency_ms,
              result.p99_latency_ms,
              static_cast<unsigned long long>(result.completed),
              ok ? "agreement ok" : "AGREEMENT FAILED");
}

/// One scalar of a run, addressed by (section, name) — what the guard
/// compares against the checked-in baseline.
struct BenchMetric {
  std::string section;
  std::string name;
  double value = 0.0;
};

double NetField(const Json& net, const char* key) {
  const Json* field = net.Find(key);
  return field != nullptr && field->is_number() ? field->AsDouble() : 0.0;
}

// --- regression guard (mirrors bench_engine's) ------------------------------
/// Pull every section scalar (and the config quick_mode flag) out of a
/// BENCH_realnet.json document. Returns false on any shape mismatch.
bool ReadBaseline(const Json& root, std::vector<BenchMetric>* metrics,
                  bool* baseline_quick) {
  const Json* sections = root.Find("sections");
  if (sections == nullptr || !sections->is_array()) return false;
  for (const Json& section : sections->items()) {
    const Json* label = section.Find("label");
    const Json* scalars = section.Find("scalars");
    if (label == nullptr || scalars == nullptr || !scalars->is_array()) {
      continue;
    }
    for (const Json& scalar : scalars->items()) {
      const Json* name = scalar.Find("name");
      const Json* value = scalar.Find("value");
      if (name == nullptr || value == nullptr || !value->is_number()) {
        continue;
      }
      if (label->AsString() == "config" && name->AsString() == "quick_mode") {
        *baseline_quick = value->AsDouble() != 0.0;
        continue;
      }
      metrics->push_back(
          {label->AsString(), name->AsString(), value->AsDouble()});
    }
  }
  return !metrics->empty();
}

/// Compare this run against the checked-in baseline: a >10% drop on any
/// system's tcp_kreqs fails the build. Everything else prints as
/// informational — latency and syscall mixes are too machine-dependent to
/// gate on, but the end-to-end tcp throughput is the number this subsystem
/// exists to defend. Exit code is the CI contract — keep it 0/1.
int GuardAgainstBaseline(const char* path, bool quick,
                         const std::vector<BenchMetric>& current) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "guard: cannot read baseline %s\n", path);
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  Result<Json> parsed = Json::Parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "guard: baseline %s is not valid JSON: %s\n", path,
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::vector<BenchMetric> baseline;
  bool baseline_quick = false;
  if (!ReadBaseline(*parsed, &baseline, &baseline_quick)) {
    std::fprintf(stderr, "guard: baseline %s has no scalars\n", path);
    return 1;
  }
  if (baseline_quick != quick) {
    std::fprintf(stderr,
                 "guard: baseline was recorded in %s mode but this run is %s "
                 "mode; refusing to compare\n",
                 baseline_quick ? "quick" : "full", quick ? "quick" : "full");
    return 1;
  }
  constexpr double kTolerance = 0.10;
  constexpr const char* kGuarded = "tcp_kreqs";
  int failures = 0;
  bool saw_guarded = false;
  for (const BenchMetric& ref : baseline) {
    double now = -1.0;
    for (const BenchMetric& cur : current) {
      if (cur.section == ref.section && cur.name == ref.name) now = cur.value;
    }
    const bool enforced = ref.name == kGuarded;
    if (now < 0.0) {
      std::fprintf(stderr, "guard: metric %s/%s missing from this run\n",
                   ref.section.c_str(), ref.name.c_str());
      if (enforced) ++failures;
      continue;
    }
    const double floor = ref.value * (1.0 - kTolerance);
    const bool ok = now >= floor;
    std::printf(
        "guard: %-12s %-24s %12.2f vs baseline %12.2f (floor %10.2f) %s%s\n",
        ref.section.c_str(), ref.name.c_str(), now, ref.value, floor,
        ok ? "ok" : "below floor", enforced ? "" : " [informational]");
    if (enforced) {
      saw_guarded = true;
      if (!ok) ++failures;
    }
  }
  if (!saw_guarded) {
    std::fprintf(stderr, "guard: baseline %s lacks the %s metric\n", path,
                 kGuarded);
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "guard: tcp throughput regressed >%.0f%% vs %s — if the "
                 "slowdown is intentional, refresh the baseline from a fresh "
                 "BENCH_realnet.json\n",
                 kTolerance * 100, path);
    return 1;
  }
  std::printf("guard: %s within %.0f%% of baseline on every system\n",
              kGuarded, kTolerance * 100);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace seemore

int main(int argc, char** argv) {
  using namespace seemore;
  using namespace seemore::bench;
  bool quick = false;
  const char* guard_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--guard=", 8) == 0) guard_path = argv[i] + 8;
  }

  const std::string node_binary = ResolveNodeBinary(argc, argv);
  if (node_binary.empty()) {
    std::fprintf(stderr,
                 "bench_realnet: cannot find seemore_node (build tools/ or "
                 "pass --node-binary=PATH)\n");
    return 1;
  }

  std::vector<RealnetSystem> systems;
  {
    RealnetSystem lion;
    lion.label = "lion_c1m1";
    lion.spec = scenario::PaperSystemSpec("Lion", 1, 1, /*seed=*/17).value();
    lion.base_port = 18700;
    systems.push_back(std::move(lion));

    RealnetSystem pbft;
    pbft.label = "pbft_f1";
    pbft.spec = scenario::PaperSystemSpec("BFT", 1, 1, /*seed=*/17).value();
    pbft.spec.topology.f = 1;  // 4 processes on localhost, not 7
    pbft.base_port = 18800;
    systems.push_back(std::move(pbft));
  }

  // Real milliseconds on the tcp side, virtual on the sim side: keep the
  // windows identical so the columns measure the same experiment.
  const SimTime warmup = quick ? Millis(100) : Millis(200);
  const SimTime measure = quick ? Millis(400) : Seconds(1);
  std::printf(
      "real-network bench (%s mode): simulator vs localhost processes\n",
      quick ? "quick" : "full");

  BenchResultsJson json("realnet");
  std::vector<BenchMetric> metrics;  // mirror of every AddScalar, for --guard
  auto add_scalar = [&](const std::string& section, const std::string& name,
                        double value) {
    json.AddScalar(section, name, value);
    metrics.push_back({section, name, value});
  };
  bool all_safe = true;
  for (RealnetSystem& system : systems) {
    system.spec.name = "realnet-" + system.label;
    system.spec.clients = 8;
    system.spec.workload.kind = scenario::WorkloadKind::kEcho;
    system.spec.workload.request_kb = 0;
    system.spec.workload.reply_kb = 0;
    system.spec.plan.warmup = warmup;
    system.spec.plan.measure = measure;
    system.spec.plan.drain = Millis(100);

    std::printf("  %s (%s)\n", system.label.c_str(),
                system.spec.ResolvedConfig().ToString().c_str());

    Result<scenario::ScenarioReport> sim =
        scenario::RunScenario(system.spec);
    if (!sim.ok()) {
      std::fprintf(stderr, "sim run failed: %s\n",
                   sim.status().ToString().c_str());
      return 1;
    }
    PrintSide("sim", sim->result, sim->ok());

    rt::LauncherOptions launcher;
    launcher.node_binary = node_binary;
    launcher.base_port = system.base_port;
    Result<rt::TcpRunReport> tcp =
        rt::RunTcpScenario(system.spec, launcher);
    if (!tcp.ok()) {
      std::fprintf(stderr, "tcp run failed: %s\n",
                   tcp.status().ToString().c_str());
      return 1;
    }
    PrintSide("tcp", tcp->result, tcp->ok());
    all_safe = all_safe && sim->ok() && tcp->ok();

    json.AddCurve(system.label, "sim", {sim->result});
    json.AddCurve(system.label, "tcp", {tcp->result});
    add_scalar(system.label, "sim_agreement_ok", sim->ok() ? 1.0 : 0.0);
    add_scalar(system.label, "tcp_agreement_ok", tcp->ok() ? 1.0 : 0.0);
    add_scalar(system.label, "sim_kreqs", sim->result.throughput_kreqs);
    add_scalar(system.label, "tcp_kreqs", tcp->result.throughput_kreqs);
    // The honest gap: real processes pay host CPU + kernel for what the
    // simulator only accounts virtually.
    if (tcp->result.throughput_kreqs > 0) {
      add_scalar(system.label, "sim_over_tcp_throughput",
                 sim->result.throughput_kreqs / tcp->result.throughput_kreqs);
    }
    // Wire-path efficiency ledger, merged across the launcher and every
    // node process (DESIGN.md §12): how many frames each writev carried,
    // how much multicast fan-out reused one encode, and what fraction of
    // received bodies were zero-copy views of a read block.
    const Json& net = tcp->net;
    const double writevs = NetField(net, "writev_syscalls");
    const double frames = NetField(net, "frames_sent");
    const double encodes = NetField(net, "multicast_encodes");
    const double enqueues = NetField(net, "multicast_enqueues");
    const double aliased = NetField(net, "rx_frames_aliased");
    const double copied = NetField(net, "rx_frames_copied");
    add_scalar(system.label, "tcp_read_syscalls",
               NetField(net, "read_syscalls"));
    add_scalar(system.label, "tcp_writev_syscalls", writevs);
    add_scalar(system.label, "tcp_frames_per_writev",
               writevs > 0 ? frames / writevs : 0.0);
    add_scalar(system.label, "tcp_multicast_reuse",
               encodes > 0 ? enqueues / encodes : 0.0);
    add_scalar(system.label, "tcp_rx_aliased_frac",
               aliased + copied > 0 ? aliased / (aliased + copied) : 1.0);
    std::printf(
        "    wire  %8.0f reads  %8.0f writevs  %5.2f frames/writev  "
        "%4.2f mcast reuse  %5.1f%% rx aliased\n",
        NetField(net, "read_syscalls"), writevs,
        writevs > 0 ? frames / writevs : 0.0,
        encodes > 0 ? enqueues / encodes : 0.0,
        aliased + copied > 0 ? 100.0 * aliased / (aliased + copied) : 100.0);
  }
  add_scalar("config", "quick_mode", quick ? 1.0 : 0.0);
  json.Write();

  if (!all_safe) {
    std::fprintf(stderr, "FAIL: an agreement/convergence check failed\n");
    return 1;
  }
  if (guard_path != nullptr) {
    return GuardAgainstBaseline(guard_path, quick, metrics);
  }
  return 0;
}
