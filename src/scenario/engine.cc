#include "scenario/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "util/thread_pool.h"

namespace seemore {
namespace scenario {
namespace {

/// The simulated cluster as a FaultTarget: every fault lands inline, in
/// virtual time.
class ClusterTarget final : public FaultTarget {
 public:
  explicit ClusterTarget(Cluster& cluster) : cluster_(cluster) {}

  bool Crashed(int i) const override { return cluster_.replica(i)->crashed(); }
  void Crash(int i) override { cluster_.Crash(i); }
  Status Recover(int i) override {
    cluster_.Recover(i);
    return Status::Ok();
  }
  Result<std::optional<RestartOutcome>> Restart(int i) override {
    SEEMORE_ASSIGN_OR_RETURN(RestartOutcome outcome, cluster_.Restart(i));
    return std::optional<RestartOutcome>(outcome);
  }
  void PowerLoss(int i) override { cluster_.PowerLoss(i); }
  Status TamperWal(int i, storage::WalTamper tamper, uint64_t offset) override {
    return cluster_.TamperWal(i, tamper, offset);
  }
  void SetByzantine(int i, uint32_t flags) override {
    cluster_.SetByzantine(i, flags);
  }
  Status Switch(SeeMoReMode to) override { return RequestSwitch(cluster_, to); }
  void PartitionClouds() override {
    cluster_.net().faults().PartitionClouds(cluster_.config().s,
                                            cluster_.n());
  }
  void HealClouds() override { cluster_.net().faults().Heal(); }
  void SetLinkUp(int from, int to, bool up) override {
    if (up) {
      cluster_.net().faults().RestoreLink(from, to);
    } else {
      cluster_.net().faults().CutLink(from, to);
    }
  }
  void ShapeLink(int from, int to, SimTime delay, SimTime jitter,
                 uint32_t drop_ppm) override {
    cluster_.net().faults().ShapeLink(from, to, {delay, jitter, drop_ppm});
  }
  void ResolvePrimary(std::function<void(int)> then) override {
    for (int i = 0; i < cluster_.n(); ++i) {
      if (cluster_.replica(i)->crashed()) continue;
      then(cluster_.replica(i)->current_primary());
      return;
    }
    then(-1);
  }

 private:
  Cluster& cluster_;
};

}  // namespace

Json ReplicaReport::ToJson() const {
  Json j = Json::Object();
  j.Set("id", id);
  j.Set("trusted", trusted);
  j.Set("crashed", crashed);
  j.Set("requests_executed", requests_executed);
  j.Set("batches_committed", batches_committed);
  j.Set("view_changes_completed", view_changes_completed);
  j.Set("messages_handled", messages_handled);
  j.Set("equivocations_detected", equivocations_detected);
  j.Set("state_transfers", state_transfers);
  j.Set("batch_fetches", batch_fetches);
  j.Set("batches_fetched", batches_fetched);
  j.Set("batch_fetch_rejects", batch_fetch_rejects);
  j.Set("view_change_bytes_sent", view_change_bytes_sent);
  j.Set("view_change_msgs_sent", view_change_msgs_sent);
  j.Set("view_change_entries_sent", view_change_entries_sent);
  j.Set("cpu_busy_ms", cpu_busy_ms);
  if (durable) {
    j.Set("wal_syncs", wal_syncs);
    j.Set("wal_records", wal_records);
  }
  j.Set("last_executed", last_executed);
  j.Set("state_digest", state_digest);
  return j;
}

void RunReportBase::SetHeadJson(Json& report) const {
  report.Set("scenario", scenario);
  report.Set("seed", seed);
  report.Set("cluster", cluster);
  report.Set("result", result.ToJson());
  Json applied = Json::Array();
  for (const AppliedEvent& event : events) {
    Json e = Json::Object();
    e.Set("at_ms", ToMillis(event.at));
    e.Set("description", event.description);
    applied.Append(std::move(e));
  }
  report.Set("events", std::move(applied));
}

Json ScenarioReport::DeterministicJson() const {
  ScenarioReport stripped = *this;
  stripped.result.wall_time_ms = 0.0;
  return stripped.ToJson();
}

Json ScenarioReport::ToJson() const {
  Json j = Json::Object();
  SetHeadJson(j);
  Json reps = Json::Array();
  for (const ReplicaReport& replica : replicas) {
    reps.Append(replica.ToJson());
  }
  j.Set("replicas", std::move(reps));
  Json network = Json::Object();
  network.Set("messages", net.messages);
  network.Set("bytes", net.bytes);
  network.Set("wire_bytes", net.wire_bytes);
  network.Set("replica_to_replica_messages", net.replica_to_replica_messages);
  network.Set("replica_to_replica_bytes", net.replica_to_replica_bytes);
  network.Set("replica_to_replica_wire_bytes",
              net.replica_to_replica_wire_bytes);
  network.Set("dropped", net.dropped);
  j.Set("network", std::move(network));
  j.Set("total_cpu_busy_ms", total_cpu_busy_ms);
  j.Set("total_executed", total_executed);
  j.Set("end_time_ms", ToMillis(end_time));
  if (!timeline.buckets.empty()) {
    Json t = Json::Object();
    t.Set("bucket_ms", ToMillis(timeline.bucket_width));
    Json kreqs = Json::Array();
    for (size_t b = 0; b < timeline.buckets.size(); ++b) {
      kreqs.Append(timeline.KreqsAt(b));
    }
    t.Set("kreqs", std::move(kreqs));
    j.Set("timeline", std::move(t));
  }
  AppendJson(j);
  return j;
}

OpFactory MakeWorkload(const ScenarioSpec& spec) {
  if (spec.workload.kind == WorkloadKind::kKv) {
    return KvWorkload(spec.seed * 13 + 7, spec.workload.keys,
                      spec.workload.put_fraction);
  }
  return EchoWorkload(spec.workload.request_kb, spec.workload.reply_kb);
}

void ApplyEvent(FaultTarget& target, const ScenarioEvent& event,
                std::set<int>& byzantine, EventDone done) {
  std::string description = event.ToString();
  Status outcome;
  switch (event.kind) {
    case EventKind::kCrash:
      target.Crash(event.replica);
      break;
    case EventKind::kRecover: {
      const Status status = target.Recover(event.replica);
      if (!status.ok()) description += " (skipped: " + status.message() + ")";
      break;
    }
    case EventKind::kByzantine:
      target.SetByzantine(event.replica, event.byz_flags);
      if (event.byz_flags != kByzNone) byzantine.insert(event.replica);
      break;
    case EventKind::kCrashPrimary:
      // The only kind whose outcome may arrive later: capture by value, the
      // event itself need not outlive this call.
      target.ResolvePrimary([&target, description = std::move(description),
                             done = std::move(done)](int primary) mutable {
        if (primary < 0) {
          description += " (skipped: no live replica)";
        } else {
          description += " (replica " + std::to_string(primary) + ")";
          target.Crash(primary);
        }
        done(std::move(description), Status::Ok());
      });
      return;
    case EventKind::kSwitch:
      outcome = target.Switch(event.target_mode);
      description += ": " + outcome.ToString();
      break;
    case EventKind::kPartitionClouds:
      target.PartitionClouds();
      break;
    case EventKind::kHealClouds:
      target.HealClouds();
      break;
    case EventKind::kRestart: {
      if (!target.Crashed(event.replica)) {
        // A runtime skip, not a spec error: crash-primary may have hit a
        // different replica than the schedule's author expected.
        description += " (skipped: replica not crashed)";
        break;
      }
      Result<std::optional<RestartOutcome>> restarted =
          target.Restart(event.replica);
      if (!restarted.ok()) {
        // The refusal is the scenario's observable (corrupt-log runs assert
        // on it); the replica stays crashed, its disk untouched.
        outcome = restarted.status();
        description += " (refused: " + outcome.ToString() + ")";
      } else if (restarted->has_value()) {
        const RestartOutcome& r = **restarted;
        description += " (restored from snapshot " +
                       std::to_string(r.snapshot_seq) + ", replayed " +
                       std::to_string(r.replayed_commits) +
                       " commits, discarded " +
                       std::to_string(r.truncated_bytes) + " torn bytes)";
      }
      break;
    }
    case EventKind::kPowerLoss:
      target.PowerLoss(event.replica);
      break;
    case EventKind::kTruncateLog:
    case EventKind::kCorruptLog:
      outcome = target.TamperWal(event.replica,
                                 event.kind == EventKind::kTruncateLog
                                     ? storage::WalTamper::kTruncate
                                     : storage::WalTamper::kFlipBit,
                                 static_cast<uint64_t>(event.arg));
      if (!outcome.ok()) description += " (" + outcome.ToString() + ")";
      break;
    case EventKind::kCutLink:
      target.SetLinkUp(event.replica, event.peer, false);
      break;
    case EventKind::kRestoreLink:
      target.SetLinkUp(event.replica, event.peer, true);
      break;
    case EventKind::kShapeLink:
      target.ShapeLink(event.replica, event.peer, event.delay, event.jitter,
                       static_cast<uint32_t>(event.arg));
      break;
  }
  done(std::move(description), std::move(outcome));
}

Status RequestSwitch(Cluster& cluster, SeeMoReMode target) {
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.replica(i)->crashed()) continue;
    const PrincipalId authority = cluster.seemore(i)->LiveSwitchAuthority(
        target, [&cluster](PrincipalId r) {
          return !cluster.replica(r)->crashed();
        });
    if (authority < 0) return Status::Unavailable("no live switch authority");
    return cluster.seemore(authority)->RequestModeSwitch(target);
  }
  return Status::Unavailable("all replicas crashed");
}

Result<ScenarioReport> RunScenario(const ScenarioSpec& spec) {
  return RunScenario(spec, ScenarioHooks{});
}

Result<ScenarioReport> RunScenario(const ScenarioSpec& spec,
                                   const ScenarioHooks& hooks) {
  SEEMORE_RETURN_IF_ERROR(spec.Validate());
  const auto wall_start = std::chrono::steady_clock::now();
  Cluster cluster(spec);

  ScenarioReport report;
  report.scenario = spec.name;
  report.seed = spec.seed;
  report.cluster = cluster.config().ToString();
  report.timeline.bucket_width = spec.plan.timeline_bucket;

  if (hooks.on_start) hooks.on_start(cluster);

  const bool record_completions = spec.plan.timeline || hooks.on_complete;
  const OpFactory ops = spec.clients > 0 ? MakeWorkload(spec) : OpFactory();
  for (int i = 0; i < spec.clients; ++i) {
    SimClient* client = cluster.AddClient();
    if (record_completions) {
      ThroughputTimeline* timeline =
          spec.plan.timeline ? &report.timeline : nullptr;
      client->on_complete = [timeline, on_complete = hooks.on_complete](
                                SimTime when, SimTime latency) {
        if (timeline != nullptr) timeline->Record(when);
        if (on_complete) on_complete(when, latency);
      };
    }
    client->Start(ops);
  }

  // One sorted agenda: schedule events plus the two measurement boundaries.
  // Boundaries sort before events at the same instant; events keep their
  // spec order among themselves (stable sort).
  constexpr int kWarmupEnd = -1;
  constexpr int kMeasureEnd = -2;
  struct Step {
    SimTime at;
    int what;  // kWarmupEnd, kMeasureEnd, or an index into spec.schedule
  };
  std::vector<Step> agenda;
  agenda.push_back({spec.plan.warmup, kWarmupEnd});
  agenda.push_back({spec.plan.warmup + spec.plan.measure, kMeasureEnd});
  for (size_t i = 0; i < spec.schedule.size(); ++i) {
    agenda.push_back({spec.schedule[i].at, static_cast<int>(i)});
  }
  std::stable_sort(agenda.begin(), agenda.end(),
                   [](const Step& a, const Step& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.what < b.what;  // boundaries (negative) first
                   });

  ClusterTarget target(cluster);
  std::set<int> byzantine;
  for (const Step& step : agenda) {
    if (step.at > cluster.sim().now()) cluster.sim().RunUntil(step.at);
    if (step.what == kWarmupEnd) {
      for (int i = 0; i < cluster.num_clients(); ++i) {
        cluster.client(i)->ResetStats();
      }
      cluster.net().ResetCounters();
      continue;
    }
    if (step.what == kMeasureEnd) {
      // Hook-added clients (example tellers etc.) are part of the measured
      // population, so count what actually exists.
      std::vector<SimClient*> clients;
      for (int i = 0; i < cluster.num_clients(); ++i) {
        clients.push_back(cluster.client(i));
      }
      report.result = StopAndSummarize(clients, spec.plan.measure);
      continue;
    }
    const ScenarioEvent& event = spec.schedule[static_cast<size_t>(step.what)];
    ApplyEvent(target, event, byzantine,
               [&](std::string description, Status outcome) {
                 report.events.push_back({event.at, std::move(description)});
                 if (hooks.on_event) hooks.on_event(cluster, event, outcome);
               });
  }

  if (hooks.on_finish) hooks.on_finish(cluster);
  if (spec.plan.drain > 0) {
    cluster.sim().RunUntil(cluster.sim().now() + spec.plan.drain);
  }

  report.net = cluster.net().counters();
  std::vector<ReplicaOutcome> outcomes;
  for (int i = 0; i < cluster.n(); ++i) {
    ReplicaOutcome outcome = cluster.Outcome(i);
    outcome.byzantine = byzantine.count(i) > 0;
    const ReplicaBase* replica = cluster.replica(i);
    ReplicaReport r;
    r.id = i;
    r.trusted = cluster.config().IsTrusted(i);
    r.crashed = replica->crashed();
    r.requests_executed = replica->stats().requests_executed;
    r.batches_committed = replica->stats().batches_committed;
    r.view_changes_completed = replica->stats().view_changes_completed;
    r.messages_handled = replica->stats().messages_handled;
    const ReplicaStats& stats = replica->stats();
    r.equivocations_detected = stats.equivocations_detected;
    r.state_transfers = stats.state_transfers;
    r.batch_fetches = stats.batch_fetches;
    r.batches_fetched = stats.batches_fetched;
    r.batch_fetch_rejects = stats.batch_fetch_rejects;
    r.view_change_bytes_sent = stats.view_change_bytes_sent;
    r.view_change_msgs_sent = stats.view_change_msgs_sent;
    r.view_change_entries_sent = stats.view_change_entries_sent;
    r.cpu_busy_ms = ToMillis(cluster.replica(i)->cpu()->total_busy());
    if (const storage::FileDurableStore* store = cluster.store(i)) {
      r.durable = true;
      r.wal_syncs = store->wal().sync_count();
      r.wal_records = store->wal().appended_lsn();
    }
    r.last_executed = outcome.last_executed;
    r.state_digest = outcome.state_digest.ToHex();
    report.total_cpu_busy_ms += r.cpu_busy_ms;
    report.replicas.push_back(r);
    outcomes.push_back(std::move(outcome));
  }
  report.total_executed = cluster.TotalExecuted();
  report.end_time = cluster.sim().now();
  static_cast<Verdict&>(report) =
      CheckVerdict(outcomes, spec.plan.check_convergence);
  report.result.wall_time_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  return report;
}

uint64_t SweepPointSeed(uint64_t base_seed, size_t index) {
  // Plain addition suffices: every consumer (Simulator, KeyStore, KvWorkload)
  // pushes its seed through SplitMix64 before use, which decorrelates
  // adjacent values. Index 0 keeps the base seed so a one-point sweep is
  // the same run as RunScenario(spec).
  return base_seed + static_cast<uint64_t>(index);
}

std::vector<ScenarioSpec> MakeSweepPoints(const ScenarioSpec& spec) {
  std::vector<int> counts = spec.plan.sweep_clients;
  if (counts.empty()) counts.push_back(spec.clients);
  std::vector<ScenarioSpec> points;
  points.reserve(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    ScenarioSpec point = spec;
    point.clients = counts[i];
    point.plan.sweep_clients.clear();
    point.seed = SweepPointSeed(spec.seed, i);
    points.push_back(std::move(point));
  }
  return points;
}

Result<std::vector<ScenarioReport>> RunMany(
    const std::vector<ScenarioSpec>& specs, int jobs) {
  return RunMany(specs, jobs, std::function<ScenarioHooks(size_t)>());
}

Result<std::vector<ScenarioReport>> RunMany(
    const std::vector<ScenarioSpec>& specs, int jobs,
    const std::function<ScenarioHooks(size_t)>& hooks_for) {
  // Validate everything up front so a bad spec fails before any thread (or
  // any earlier point's work) is spent.
  for (const ScenarioSpec& spec : specs) {
    SEEMORE_RETURN_IF_ERROR(spec.Validate());
  }

  // Hooks are built here, on the caller's thread, before any worker starts
  // (the documented contract: a hooks_for factory may touch caller state
  // without locking). Only the built hooks run on workers, and those must
  // touch per-index state only.
  std::vector<ScenarioHooks> hooks(specs.size());
  if (hooks_for) {
    for (size_t i = 0; i < specs.size(); ++i) hooks[i] = hooks_for(i);
  }

  std::vector<std::optional<Result<ScenarioReport>>> slots(specs.size());
  const auto run_point = [&](size_t i) {
    slots[i] = RunScenario(specs[i], hooks[i]);
  };

  if (jobs <= 1 || specs.size() <= 1) {
    // Degenerate case: plain serial execution, no threads at all.
    for (size_t i = 0; i < specs.size(); ++i) run_point(i);
  } else {
    if (static_cast<size_t>(jobs) > specs.size()) {
      jobs = static_cast<int>(specs.size());
    }
    ThreadPool pool(jobs);
    std::vector<std::future<void>> done;
    done.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      // Each task touches only its own slot (and its hooks touch only
      // per-index state), so no locking is needed.
      done.push_back(pool.Submit([&run_point, i] { run_point(i); }));
    }
    for (std::future<void>& f : done) f.get();  // rethrows task exceptions
  }

  std::vector<ScenarioReport> reports;
  reports.reserve(specs.size());
  for (std::optional<Result<ScenarioReport>>& slot : slots) {
    if (!slot->ok()) return slot->status();
    reports.push_back(*std::move(*slot));
  }
  return reports;
}

Result<std::vector<ScenarioReport>> RunSweep(const ScenarioSpec& spec,
                                             int jobs) {
  return RunMany(MakeSweepPoints(spec), jobs);
}

}  // namespace scenario
}  // namespace seemore
