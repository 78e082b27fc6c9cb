// Engine microbenchmark: host-side events/sec of the discrete-event engine
// on its three hot shapes, with the numbers the zero-copy/pooled-heap/memo
// rework is accountable for.
//
//   timer_churn       - self-rescheduling timers plus schedule/cancel pairs
//                       (the view-change timer pattern); stresses the slab
//                       heap and O(1) cancellation.
//   multicast_fanout  - one sender multicasts 8 KiB frames to 48 metered
//                       receivers, each of which digests the frame
//                       (receiver-side verification); stresses payload
//                       sharing and the digest memo.
//   cluster           - a full SeeMoRe Lion cluster under closed-loop load;
//                       end-to-end engine throughput with all layers on.
//
// The "seed" numbers baked in below were measured with the exact same
// workloads against the pre-rework engine (commit e32ed6a: per-receiver
// payload copies, unordered_map + priority_queue scheduler, no memo) on the
// reference dev machine; the emitted BENCH_engine.json reports both series
// and the resulting speedups. Absolute numbers vary by host — the speedup
// ratio is only meaningful when the full workload (not --quick) runs on a
// machine comparable to the one that produced the baseline.
//
// Usage: bench_engine [--quick] [--guard=<baseline.json>]
//   --quick  shrinks workloads ~10x for CI
//   --guard  after measuring, compare against a checked-in BENCH_engine.json
//            (bench/baselines/engine.json) and exit non-zero if any
//            events_per_sec metric regressed more than 10%. Refresh the
//            baseline by copying a fresh BENCH_engine.json over it whenever
//            the reference machine or an intentional perf change lands.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/memo.h"
#include "crypto/sha256.h"
#include "harness/bench_json.h"
#include "scenario/builder.h"
#include "scenario/engine.h"
#include "util/json.h"

namespace seemore {
namespace bench {
namespace {

/// Seed-engine (pre-rework) results for the full workloads, reference dev
/// machine. Recorded before the rework landed; see file comment.
constexpr double kSeedTimerChurnEventsPerSec = 1752695.0;
constexpr double kSeedMulticastDeliveriesPerSec = 23402.0;
constexpr double kSeedClusterEventsPerSec = 151910.0;

double Secs(std::chrono::steady_clock::time_point a,
            std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workload 1: timer churn -----------------------------------------------
double TimerChurn(int chains, uint64_t events_per_chain) {
  Simulator sim(7);
  std::vector<uint64_t> left(chains, events_per_chain);
  std::vector<std::function<void()>> tick(chains);
  for (int i = 0; i < chains; ++i) {
    tick[i] = [&, i] {
      EventId decoy = sim.Schedule(Millis(1000), [] {});
      sim.Cancel(decoy);
      if (--left[i] > 0) {
        sim.Schedule(static_cast<SimTime>(sim.rng().NextBounded(1000) + 1),
                     tick[i]);
      }
    };
    sim.Schedule(static_cast<SimTime>(i + 1), tick[i]);
  }
  auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(sim.executed_events()) / Secs(t0, t1);
}

// --- Workload 2: multicast fanout ------------------------------------------
/// This bench's run-scoped memo (production runs get theirs from the
/// Cluster; there is no process-wide instance anymore).
CryptoMemo& BenchMemo() {
  static CryptoMemo memo;
  return memo;
}

/// Models receiver-side batch verification: digest the delivered frame,
/// memoized on the shared buffer's identity.
struct HashingHandler : MessageHandler {
  uint64_t received = 0;
  Digest last;
  void OnMessage(PrincipalId, Payload payload) override {
    ++received;
    last = BenchMemo().DigestOf(payload.id(), 0, payload.data(),
                                payload.size());
  }
};

double MulticastFanout(int receivers, int rounds, size_t payload_bytes,
                       uint64_t* delivered_out) {
  Simulator sim(11);
  NetworkConfig config;
  config.intra_private = {Micros(80), Micros(20)};
  SimNetwork net(&sim, config);
  std::vector<HashingHandler> handlers(receivers + 1);
  std::vector<PrincipalId> targets;
  for (int i = 0; i <= receivers; ++i) {
    net.Register(i, Zone::kPrivate, &handlers[i], /*metered=*/true);
    if (i > 0) targets.push_back(i);
  }
  Bytes payload(payload_bytes);
  for (size_t i = 0; i < payload_bytes; ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (int r = 0; r < rounds; ++r) {
    sim.ScheduleAt(Micros(100) * r, [&, r] {
      payload[0] = static_cast<uint8_t>(r);  // new frame each round
      net.Multicast(0, targets, payload);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  auto t1 = std::chrono::steady_clock::now();
  uint64_t delivered = 0;
  for (const auto& h : handlers) delivered += h.received;
  if (delivered_out) *delivered_out = delivered;
  return static_cast<double>(delivered) / Secs(t0, t1);
}

// --- Workload 3: full protocol stack ---------------------------------------
/// Host time runs from the built cluster's first client start to the
/// clients' stop, so cluster construction and report assembly stay out of
/// the rate.
double ClusterEventsPerSec(SimTime measure, uint64_t* executed_out) {
  scenario::ScenarioBuilder builder;
  builder.Name("engine-cluster")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .CloudSizes(2, 4)
      .Batching(64, 2)
      // Match the seed engine bench's ClusterConfig defaults so the
      // measured rate stays comparable across PRs.
      .CheckpointPeriod(128)
      .ViewChangeTimeout(Millis(20))
      .Seed(5)
      .Clients(16)
      .Echo(1, 0)
      .Warmup(Millis(100))
      .Measure(measure);
  std::chrono::steady_clock::time_point t0, t1;
  uint64_t executed = 0;
  scenario::ScenarioHooks hooks;
  hooks.on_start = [&](Cluster&) { t0 = std::chrono::steady_clock::now(); };
  hooks.on_finish = [&](Cluster& cluster) {
    t1 = std::chrono::steady_clock::now();
    executed = cluster.sim().executed_events();
  };
  const Result<scenario::ScenarioReport> report =
      scenario::RunScenario(builder.spec(), hooks);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    std::abort();
  }
  if (executed_out) *executed_out = executed;
  return static_cast<double>(executed) / Secs(t0, t1);
}

// --- regression guard -------------------------------------------------------
/// Pull the events_per_sec scalars (and quick_mode flag) out of a
/// BENCH_engine.json document. Returns false on any shape mismatch.
bool ReadBaseline(const Json& root,
                  std::vector<std::pair<std::string, double>>* metrics,
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
      if (label->AsString() == "events_per_sec") {
        metrics->emplace_back(name->AsString(), value->AsDouble());
      } else if (label->AsString() == "config" &&
                 name->AsString() == "quick_mode") {
        *baseline_quick = value->AsDouble() != 0.0;
      }
    }
  }
  return !metrics->empty();
}

/// Compare this run's numbers against the checked-in baseline; >10% drop on
/// any metric fails. Exit code is the CI contract — keep it 0/1.
int GuardAgainstBaseline(const char* path, bool quick,
                         const std::vector<std::pair<std::string, double>>&
                             current) {
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
  std::vector<std::pair<std::string, double>> baseline;
  bool baseline_quick = false;
  if (!ReadBaseline(*parsed, &baseline, &baseline_quick)) {
    std::fprintf(stderr, "guard: baseline %s has no events_per_sec scalars\n",
                 path);
    return 1;
  }
  if (baseline_quick != quick) {
    std::fprintf(stderr,
                 "guard: baseline was recorded in %s mode but this run is %s "
                 "mode; refusing to compare\n",
                 baseline_quick ? "quick" : "full", quick ? "quick" : "full");
    return 1;
  }
  // Only the end-to-end cluster number gates the build: it is what the PR's
  // acceptance target is stated in, and the micro workloads (timer churn
  // especially) are too small in --quick mode to hold a 10% band on a noisy
  // runner. The rest still print for the log.
  constexpr double kTolerance = 0.10;
  constexpr const char* kGuarded = "cluster";
  int failures = 0;
  bool saw_guarded = false;
  for (const auto& [name, ref] : baseline) {
    double now = -1.0;
    for (const auto& [cur_name, cur] : current) {
      if (cur_name == name) now = cur;
    }
    const bool enforced = name == kGuarded;
    if (now < 0.0) {
      std::fprintf(stderr, "guard: metric %s missing from this run\n",
                   name.c_str());
      if (enforced) ++failures;
      continue;
    }
    const double floor = ref * (1.0 - kTolerance);
    const bool ok = now >= floor;
    std::printf("guard: %-28s %12.0f vs baseline %12.0f (floor %12.0f) %s%s\n",
                name.c_str(), now, ref, floor,
                ok ? "ok" : "below floor",
                enforced ? "" : " [informational]");
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
                 "guard: %s events/sec regressed >%.0f%% vs %s — if the "
                 "slowdown is intentional, refresh the baseline from a fresh "
                 "BENCH_engine.json\n",
                 kGuarded, kTolerance * 100, path);
    return 1;
  }
  std::printf("guard: %s within %.0f%% of baseline\n", kGuarded,
              kTolerance * 100);
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

  const int churn_chains = 64;
  const uint64_t churn_events = quick ? 2000 : 20000;
  const int fanout_receivers = 48;
  const int fanout_rounds = quick ? 400 : 4000;
  const size_t fanout_payload = 8192;
  const SimTime cluster_measure = quick ? Millis(100) : Millis(1000);

  std::printf("bench_engine (%s mode)\n", quick ? "quick" : "full");

  CryptoMemo& memo = BenchMemo();

  const double churn = TimerChurn(churn_chains, churn_events);
  std::printf("timer_churn:      %12.0f events/s   (seed engine: %.0f)\n",
              churn, kSeedTimerChurnEventsPerSec);

  const uint64_t digest_misses_before = memo.digest_misses();
  const uint64_t digest_hits_before = memo.digest_hits();
  uint64_t delivered = 0;
  const double fanout =
      MulticastFanout(fanout_receivers, fanout_rounds, fanout_payload,
                      &delivered);
  std::printf(
      "multicast_fanout: %12.0f deliveries/s (seed engine: %.0f); "
      "%llu delivered, digest memo %llu misses / %llu hits\n",
      fanout, kSeedMulticastDeliveriesPerSec,
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(memo.digest_misses() -
                                      digest_misses_before),
      static_cast<unsigned long long>(memo.digest_hits() -
                                      digest_hits_before));

  const char* impl_name =
      Sha256::ActiveImpl() == Sha256::Impl::kShaNi    ? "sha-ni"
      : Sha256::ActiveImpl() == Sha256::Impl::kAvx2   ? "avx2"
                                                      : "portable";
  uint64_t executed = 0;
  const double cluster = ClusterEventsPerSec(cluster_measure, &executed);
  std::printf("cluster:          %12.0f events/s   (seed engine: %.0f, "
              "sha kernel: %s); %llu events executed\n",
              cluster, kSeedClusterEventsPerSec, impl_name,
              static_cast<unsigned long long>(executed));

  // The acceptance target is measured with the best kernel the host has,
  // but the portable-fallback number matters too: it is what a machine
  // without SHA-NI/AVX2 gets, and the gap isolates how much of the cluster
  // speedup is crypto vs allocation/containers. Kernel choice cannot
  // perturb the run itself (identical digests, identical simulated cost) —
  // only host wall-clock differs.
  double cluster_portable = cluster;
  if (Sha256::ActiveImpl() != Sha256::Impl::kPortable) {
    Sha256::ForceImpl(Sha256::Impl::kPortable);
    cluster_portable = ClusterEventsPerSec(cluster_measure, nullptr);
    Sha256::ResetImpl();
    std::printf("cluster/portable: %12.0f events/s   (forced portable "
                "sha-256 fallback)\n",
                cluster_portable);
  }

  BenchResultsJson json("engine");
  json.AddScalar("events_per_sec", "timer_churn", churn);
  json.AddScalar("events_per_sec", "multicast_fanout_deliveries", fanout);
  json.AddScalar("events_per_sec", "cluster", cluster);
  json.AddScalar("seed_engine_baseline", "timer_churn",
                 kSeedTimerChurnEventsPerSec);
  json.AddScalar("seed_engine_baseline", "multicast_fanout_deliveries",
                 kSeedMulticastDeliveriesPerSec);
  json.AddScalar("seed_engine_baseline", "cluster",
                 kSeedClusterEventsPerSec);
  json.AddScalar("speedup_vs_seed", "timer_churn",
                 churn / kSeedTimerChurnEventsPerSec);
  json.AddScalar("speedup_vs_seed", "multicast_fanout",
                 fanout / kSeedMulticastDeliveriesPerSec);
  json.AddScalar("speedup_vs_seed", "cluster",
                 cluster / kSeedClusterEventsPerSec);
  json.AddScalar("portable_sha_fallback", "cluster", cluster_portable);
  json.AddScalar("portable_sha_fallback", "cluster_speedup_vs_seed",
                 cluster_portable / kSeedClusterEventsPerSec);
  json.AddScalar("cluster_run", "executed_events",
                 static_cast<double>(executed));
  json.AddScalar("config", "quick_mode", quick ? 1.0 : 0.0);
  json.AddScalar("config", "sha_kernel",
                 static_cast<double>(Sha256::ActiveImpl()));
  json.Write();

  std::printf(
      "speedup vs seed engine: timer_churn %.2fx, multicast_fanout %.2fx, "
      "cluster %.2fx%s\n",
      churn / kSeedTimerChurnEventsPerSec,
      fanout / kSeedMulticastDeliveriesPerSec,
      cluster / kSeedClusterEventsPerSec,
      quick ? " (quick mode: ratios approximate)" : "");

  if (guard_path != nullptr) {
    return GuardAgainstBaseline(
        guard_path, quick,
        {{"timer_churn", churn},
         {"multicast_fanout_deliveries", fanout},
         {"cluster", cluster}});
  }
  return 0;
}
