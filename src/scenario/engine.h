// The one place that turns a declarative ScenarioSpec into a running
// cluster: builds the simulator/network/replicas/clients, executes the
// fault/switch/partition schedule interleaved with the measurement plan,
// and returns a structured ScenarioReport (RunResult + timeline + network
// counters + CPU totals + agreement/convergence verdicts).
//
// Lifecycle of RunScenario (all in virtual time):
//   build cluster -> hooks.on_start -> start closed-loop clients ->
//   [schedule events + warmup boundary + measure boundary, in time order]
//   -> stop clients -> hooks.on_finish -> drain -> invariant checks.
// Client stats and network counters reset at the warmup boundary, so the
// report covers exactly the measure window.

#ifndef SEEMORE_SCENARIO_ENGINE_H_
#define SEEMORE_SCENARIO_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/runner.h"
#include "scenario/spec.h"
#include "scenario/verdict.h"

namespace seemore {
namespace scenario {

/// Per-replica end-of-run counters.
struct ReplicaReport {
  int id = 0;
  bool trusted = false;
  bool crashed = false;
  uint64_t requests_executed = 0;
  uint64_t batches_committed = 0;
  uint64_t view_changes_completed = 0;
  uint64_t messages_handled = 0;
  /// Conflicting votes flagged by the slot vote trackers (one per faulty
  /// voter per slot/phase).
  uint64_t equivocations_detected = 0;
  /// Snapshots installed by state transfer.
  uint64_t state_transfers = 0;
  /// Batch fetches and view-change traffic (ReplicaStats has the meaning).
  uint64_t batch_fetches = 0;
  uint64_t batches_fetched = 0;
  uint64_t batch_fetch_rejects = 0;
  uint64_t view_change_bytes_sent = 0;
  uint64_t view_change_msgs_sent = 0;
  uint64_t view_change_entries_sent = 0;
  double cpu_busy_ms = 0.0;
  /// Group commit, reported only when the replica has a durable store:
  /// WAL syncs completed and records appended by its current incarnation.
  bool durable = false;
  uint64_t wal_syncs = 0;
  uint64_t wal_records = 0;
  /// Final execution frontier and state digest (hex) — what the restart
  /// scenarios compare between a kill-and-restart replica and its
  /// kill-and-rejoin twin.
  uint64_t last_executed = 0;
  std::string state_digest;

  Json ToJson() const;
};

/// One schedule step as actually applied (switches record the authority's
/// answer; "skipped" events — e.g. a switch with no live authority — say so).
struct AppliedEvent {
  SimTime at = 0;
  std::string description;
};

/// What a run report carries whichever runtime produced it.
struct RunReportBase : Verdict {
  std::string scenario;
  uint64_t seed = 0;
  std::string cluster;  // resolved ClusterConfig::ToString()
  /// Client-side measurement over the measure window.
  RunResult result;
  std::vector<AppliedEvent> events;

  /// Sets scenario, seed, cluster, result and events on a report object.
  void SetHeadJson(Json& report) const;
};

/// A simulated run. `result` aggregates every client on the cluster — the
/// spec's closed-loop clients plus any added by hooks; all-zero when no
/// client existed.
struct ScenarioReport : RunReportBase {
  /// Filled when plan.timeline; covers the whole run, not just the measure
  /// window (Figure 4 wants the dip visible from t=0).
  ThroughputTimeline timeline;

  std::vector<ReplicaReport> replicas;
  /// Network counters over the measure window (reset at warmup end).
  NetCounters net;
  double total_cpu_busy_ms = 0.0;
  uint64_t total_executed = 0;
  SimTime end_time = 0;

  Json ToJson() const;
  /// ToJson with the host-time fields (result.wall_time_ms) zeroed: the
  /// bit-identical comparison surface. Everything virtual-time — counters,
  /// latencies, per-replica stats, events — must reproduce exactly under a
  /// fixed seed whether the run executed serially or on a RunMany worker;
  /// how long the host took may not.
  Json DeterministicJson() const;
};

/// Optional embedder callbacks for consumers (examples, benches) that
/// interleave custom logic with the standard lifecycle. All run inline on
/// simulator time; hooks may submit client ops, read stats, or schedule
/// their own simulator events.
struct ScenarioHooks {
  /// After the cluster is built, before the spec's clients start.
  std::function<void(Cluster&)> on_start;
  /// After each schedule event is applied (status is the switch outcome for
  /// kSwitch, Ok otherwise).
  std::function<void(Cluster&, const ScenarioEvent&, const Status&)> on_event;
  /// Every client completion: (completion time, end-to-end latency).
  std::function<void(SimTime, SimTime)> on_complete;
  /// After clients stop, before the drain and the invariant checks.
  std::function<void(Cluster&)> on_finish;
};

/// The fault surface of one running cluster: what the schedule
/// interpreter (ApplyEvent) needs from a runtime. The simulator implements
/// it with a thin adapter over Cluster; the tcp backend with its Launcher.
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;

  virtual bool Crashed(int replica) const = 0;
  virtual void Crash(int replica) = 0;
  /// A non-Ok status is a runtime skip (the replica was not crashed).
  virtual Status Recover(int replica) = 0;
  /// Rebuild a crashed replica from its durable state; an error refuses.
  /// nullopt when recovery runs in a new process that reports it itself.
  virtual Result<std::optional<RestartOutcome>> Restart(int replica) = 0;
  virtual void PowerLoss(int replica) = 0;
  /// Damage a crashed replica's newest WAL segment (storage::TamperWalTail).
  virtual Status TamperWal(int replica, storage::WalTamper tamper,
                           uint64_t offset_from_end) = 0;
  virtual void SetByzantine(int replica, uint32_t flags) = 0;
  /// Request a live mode switch on the first live switch authority.
  virtual Status Switch(SeeMoReMode target) = 0;
  virtual void PartitionClouds() = 0;
  virtual void HealClouds() = 0;
  virtual void SetLinkUp(int from, int to, bool up) = 0;
  virtual void ShapeLink(int from, int to, SimTime delay, SimTime jitter,
                         uint32_t drop_ppm) = 0;
  /// Call `then` with the current primary, or -1 when no live replica
  /// knows. May answer inline or later.
  virtual void ResolvePrimary(std::function<void(int primary)> then) = 0;
};

/// Receives an event's AppliedEvent text and outcome status.
using EventDone = std::function<void(std::string description, Status outcome)>;

/// The one schedule interpreter of both runtimes: apply `event` to
/// `target`, then report its AppliedEvent text (ScenarioEvent::ToString
/// plus an outcome suffix). `byzantine` collects every replica the
/// schedule ever made Byzantine; it stays excluded from the verdict even
/// after byz=none. `done` runs once: inline, except for crash-primary on a
/// target that resolves the primary later.
void ApplyEvent(FaultTarget& target, const ScenarioEvent& event,
                std::set<int>& byzantine, EventDone done);

/// The spec's client op factory.
OpFactory MakeWorkload(const ScenarioSpec& spec);

/// Run the full scenario lifecycle. Fails fast on an invalid spec; an
/// invariant violation is NOT an error (inspect report.ok()).
Result<ScenarioReport> RunScenario(const ScenarioSpec& spec);
Result<ScenarioReport> RunScenario(const ScenarioSpec& spec,
                                   const ScenarioHooks& hooks);

/// Deterministic seed for sweep/batch point `index` of a spec seeded with
/// `base_seed`: a pure function of the spec, independent of execution
/// order, thread assignment or wall time — the reason a parallel sweep's
/// reports are bit-identical to a serial one's. Point 0 keeps the base
/// seed; later points are decorrelated through the generators' SplitMix64
/// seed expansion (util/rng.h).
uint64_t SweepPointSeed(uint64_t base_seed, size_t index);

/// The sweep as explicit per-point specs (clients + seed resolved, sweep
/// plan cleared): what RunSweep feeds RunMany, exposed so benches and tests
/// can inspect or re-batch the exact same points.
std::vector<ScenarioSpec> MakeSweepPoints(const ScenarioSpec& spec);

/// Run independent scenarios across `jobs` worker threads (jobs <= 1 runs
/// them inline, in order, with no threads — the degenerate case is plain
/// serial execution). Reports come back in spec order. Each run owns its
/// whole world (simulator, network, keystore, CryptoMemo), so reports are
/// bit-identical to serial execution; see DESIGN.md §"Concurrency model".
/// Validation fails fast (every spec is checked before any run starts); a
/// run that fails mid-batch does not cancel the others — the batch
/// completes and the first failure (in spec order) is returned.
Result<std::vector<ScenarioReport>> RunMany(
    const std::vector<ScenarioSpec>& specs, int jobs);
/// RunMany with per-spec hooks: `hooks_for(i)` builds the hooks for
/// specs[i]; every factory call happens on the caller's thread before any
/// run starts, so the factory may touch caller state freely. The *built*
/// hooks for point i run on whichever worker executes it and must only
/// touch state owned by that point (e.g. a per-index result slot).
Result<std::vector<ScenarioReport>> RunMany(
    const std::vector<ScenarioSpec>& specs, int jobs,
    const std::function<ScenarioHooks(size_t)>& hooks_for);

/// One report per plan.sweep_clients entry (or a single report at
/// spec.clients when the sweep is empty), each from a fresh cluster — one
/// throughput/latency curve of Figure 2/3. `jobs` > 1 fans the points out
/// across a thread pool; the reports are bit-identical to jobs = 1.
Result<std::vector<ScenarioReport>> RunSweep(const ScenarioSpec& spec,
                                             int jobs = 1);

/// Request a live mode switch the way the paper does (§5.4): on the trusted
/// authority of the next view, skipping crashed authorities up to S views
/// ahead (SeeMoReReplica::LiveSwitchAuthority). Shared by the engine and
/// embedders that switch outside a schedule.
Status RequestSwitch(Cluster& cluster, SeeMoReMode target);

}  // namespace scenario
}  // namespace seemore

#endif  // SEEMORE_SCENARIO_ENGINE_H_
