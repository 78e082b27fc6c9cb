// ScenarioSpec: the declarative description of one experiment on the
// simulated hybrid cloud — topology + protocol/mode, network and cost
// model, workload, a typed fault/switch/partition schedule, and a
// measurement plan. Every composition root in the repository (seemore_ctl,
// the Figure benches, the examples, integration tests) expresses its
// experiment as one of these and hands it to scenario::RunScenario
// (engine.h); specs serialize to JSON (ToJson/FromJson) so scenarios are
// files that can be committed, diffed and replayed bit-identically under a
// fixed seed.

#ifndef SEEMORE_SCENARIO_SPEC_H_
#define SEEMORE_SCENARIO_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/cost_model.h"
#include "net/network.h"
#include "scenario/names.h"
#include "storage/durable_store.h"
#include "util/json.h"
#include "util/status.h"
#include "util/time.h"

namespace seemore {
namespace scenario {

/// Failure bounds and cloud sizes. `s` / `p` may be left at -1 to derive
/// the paper's defaults: S = 2c, and P = 3m+1 for SeeMoRe or
/// P = (3m+2c+1) - S for S-UpRight. CFT/BFT ignore s/p and size off `f`.
struct TopologySpec {
  int c = 1;
  int m = 1;
  int f = 2;
  int s = -1;
  int p = -1;
};

/// Consensus tuning knobs (ClusterConfig's non-topology fields).
struct TuningSpec {
  int batch_max = 256;
  int pipeline_max = 2;
  int checkpoint_period = 512;
  SimTime view_change_timeout = Millis(30);
  bool lion_sign_accepts = false;
  /// ClusterConfig::reply_cache_retention (0 = keep every reply).
  uint64_t reply_cache_retention = 0;
};

/// What the closed-loop clients issue.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kEcho;
  /// Echo (§6 micro-benchmark): x-KB requests / y-KB replies.
  uint32_t request_kb = 0;
  uint32_t reply_kb = 0;
  /// KV: PUT/GET mix over `keys` keys.
  int keys = 128;
  double put_fraction = 0.5;
};

/// One step of the fault / switch / partition schedule. Which auxiliary
/// fields matter depends on `kind` (see names.h EventKind).
struct ScenarioEvent {
  SimTime at = 0;
  EventKind kind = EventKind::kCrash;
  int replica = 0;                             // crash / recover / byzantine
  uint32_t byz_flags = 0;                      // byzantine
  SeeMoReMode target_mode = SeeMoReMode::kLion;  // switch
  /// truncate-log: bytes chopped off the WAL tail; corrupt-log: bit-flip
  /// offset counted back from the WAL tail end; shape-link: drop
  /// probability in parts-per-million.
  int64_t arg = 0;
  /// Directed-link events (cut-link / restore-link / shape-link): the link
  /// is `replica` -> `peer`, that one direction only.
  int peer = -1;
  /// shape-link: extra fixed latency and uniform jitter bound on the link.
  SimTime delay = 0;
  SimTime jitter = 0;

  /// "t=30ms crash replica 2" — used by reports and seemore_ctl.
  std::string ToString() const;
};

/// When to measure and what to record. The run is warmup + measure (client
/// stats and network counters reset at the warmup boundary), then clients
/// stop and the simulation drains for `drain` before invariant checks.
struct MeasurementPlan {
  SimTime warmup = Millis(150);
  SimTime measure = Millis(500);
  SimTime drain = 0;
  /// Record a per-bucket completion timeline (Figure 4 style).
  bool timeline = false;
  SimTime timeline_bucket = Millis(10);
  /// After the drain, require all live honest replicas to have converged to
  /// one state digest (only meaningful when the drain reaches quiescence).
  bool check_convergence = false;
  /// Client populations for RunSweep; empty means single run at `clients`.
  std::vector<int> sweep_clients;
};

struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;

  /// Which runtime executes the spec. The simulator is the default; "tcp"
  /// asks seemore_ctl to launch real node processes on localhost (src/rt/)
  /// and drive them with this same spec. The engine's RunScenario always
  /// runs the simulator — the backend field routes at the tool layer, so a
  /// spec file is one experiment with two interchangeable runtimes.
  BackendKind backend = BackendKind::kSim;

  ProtocolKind protocol = ProtocolKind::kSeeMoRe;
  /// Initial SeeMoRe mode (ignored by the flat protocols).
  SeeMoReMode mode = SeeMoReMode::kLion;
  TopologySpec topology;
  TuningSpec tuning;
  NetworkConfig net;
  CostModel costs;

  uint64_t seed = 42;
  int clients = 16;
  SimTime client_retransmit_timeout = Millis(60);
  StateMachineKind state_machine = StateMachineKind::kKvStore;
  WorkloadSpec workload;
  MeasurementPlan plan;
  /// Durable-storage knobs (storage/durable_store.h); off by default so
  /// every pre-durability spec behaves bit-identically.
  DurabilityOptions durability;
  std::vector<ScenarioEvent> schedule;

  /// ClusterConfig with the -1 topology defaults resolved (see TopologySpec).
  ClusterConfig ResolvedConfig() const;

  /// Full consistency check: topology (via ClusterConfig::Validate),
  /// probabilities, workload parameters, measurement plan, and — the check
  /// seemore_ctl historically skipped — every scheduled event: replica ids
  /// must be valid for the resolved topology, Byzantine behaviour must not
  /// target a trusted SeeMoRe replica, mode switches require SeeMoRe, and
  /// cloud partitions require a hybrid (two-cloud) deployment.
  Status Validate() const;

  /// Lossless JSON image (all fields, defaults included, deterministic
  /// field order). Times serialize as integer microseconds.
  Json ToJson() const;
  std::string ToJsonText() const { return ToJson().Dump(2) + "\n"; }

  /// Strict decode: unknown fields anywhere are rejected, as are wrong
  /// types and unknown enum tokens. Absent fields keep their defaults.
  /// The result is NOT Validate()d — callers decide when to check.
  static Result<ScenarioSpec> FromJson(const Json& json);
  static Result<ScenarioSpec> FromJsonText(const std::string& text);
};

}  // namespace scenario
}  // namespace seemore

#endif  // SEEMORE_SCENARIO_SPEC_H_
