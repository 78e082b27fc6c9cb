#include "scenario/registry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>

#include "consensus/replica_base.h"
#include "scenario/builder.h"
#include "util/logging.h"

namespace seemore {
namespace scenario {

CostModel PaperCostModel() {
  CostModel costs;
  costs.recv_fixed = Micros(14);
  costs.send_fixed = Micros(6);
  costs.per_kib = Micros(2);
  // BFT-SMaRt authenticates with HMAC vectors rather than public-key
  // signatures; "sign"/"verify" here price one MAC-vector operation.
  costs.sign = Micros(4);
  costs.verify = Micros(4);
  costs.mac = Micros(1);
  costs.hash_per_kib = Micros(2);
  costs.hash_fixed = Micros(1);
  costs.execute = Micros(2);
  return costs;
}

NetworkConfig PaperNetwork() {
  NetworkConfig net;
  net.intra_private = {Micros(80), Micros(25)};
  net.intra_public = {Micros(80), Micros(25)};
  net.cross_cloud = {Micros(90), Micros(25)};
  net.client_link = {Micros(90), Micros(25)};
  return net;
}

ScenarioSpec PaperBaseSpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.net = PaperNetwork();
  spec.costs = PaperCostModel();
  spec.seed = seed;
  spec.client_retransmit_timeout = Millis(100);
  spec.tuning.checkpoint_period = 1024;
  // BFT-SMaRt style: essentially one consensus instance in flight at a time
  // with everything pending folded into the next batch. This is what makes
  // closed-loop throughput scale with the client population (§6).
  spec.tuning.batch_max = 512;
  spec.tuning.pipeline_max = 2;
  spec.tuning.view_change_timeout = Millis(40);
  return spec;
}

const std::vector<std::string>& PaperSystemNames() {
  static const std::vector<std::string> kNames = {
      "BFT", "S-UpRight", "Peacock", "Dog", "Lion", "CFT"};
  return kNames;
}

Result<ScenarioSpec> PaperSystemSpec(const std::string& system, int c, int m,
                                     uint64_t seed) {
  ScenarioBuilder builder(PaperBaseSpec(seed));
  const int f = c + m;
  if (system == "BFT") {
    builder.Bft(f);
  } else if (system == "CFT") {
    builder.Cft(f);
  } else if (system == "S-UpRight") {
    builder.SUpRight(c, m);
  } else if (system == "Lion") {
    builder.SeeMoRe(SeeMoReMode::kLion, c, m);
  } else if (system == "Dog") {
    builder.SeeMoRe(SeeMoReMode::kDog, c, m);
  } else if (system == "Peacock") {
    builder.SeeMoRe(SeeMoReMode::kPeacock, c, m);
  } else {
    return Status::InvalidArgument("unknown §6 system: \"" + system + "\"");
  }
  return builder.spec();
}

Result<ScenarioSpec> Fig4SystemSpec(const std::string& system, int clients) {
  SEEMORE_ASSIGN_OR_RETURN(
      ScenarioSpec base, PaperSystemSpec(system, /*c=*/1, /*m=*/1,
                                         /*seed=*/23));
  ScenarioBuilder builder(std::move(base));
  builder.Echo(0, 0)
      .Clients(clients)
      .CheckpointPeriod(10000)  // §6.3
      // The paper's outages are 15-24 ms, implying an aggressive failure
      // detector; match that regime.
      .ViewChangeTimeout(Millis(8))
      .RetransmitTimeout(Millis(12))
      .CrashPrimaryAt(Millis(30))
      .Warmup(0)
      .Measure(Millis(100))
      .Timeline(Millis(2));
  return builder.spec();
}

namespace {

struct NamedScenario {
  RegistryEntry entry;
  std::function<ScenarioSpec()> make;
};

std::string LowerCase(const std::string& text) {
  std::string lower = text;
  for (char& ch : lower) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return lower;
}

ScenarioSpec Fig2aSystem(const std::string& system) {
  Result<ScenarioSpec> spec =
      PaperSystemSpec(system, /*c=*/1, /*m=*/1, /*seed=*/17);
  SEEMORE_CHECK(spec.ok()) << spec.status().ToString();
  ScenarioBuilder builder(*std::move(spec));
  builder.Name("fig2a-" + LowerCase(system))
      .Description("Figure 2(a) point: " + system +
                   " at f=2 (c=1, m=1), 0/0 payload, 32 closed-loop clients")
      .Clients(32)
      .Echo(0, 0)
      .Warmup(Millis(150))
      .Measure(Millis(500));
  return builder.spec();
}

ScenarioSpec Fig3Payload(uint32_t request_kb, uint32_t reply_kb) {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/17));
  char name[48];
  std::snprintf(name, sizeof(name), "fig3-%u-%u", request_kb, reply_kb);
  builder.Name(name)
      .Description("Figure 3 point: Lion, c=m=1, " +
                   std::to_string(request_kb) + " KB requests / " +
                   std::to_string(reply_kb) +
                   " KB replies (--bench=fig3 sweeps all six systems)")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(32)
      .Echo(request_kb, reply_kb)
      .Warmup(Millis(150))
      .Measure(Millis(500));
  return builder.spec();
}

ScenarioSpec Fig4PrimaryCrash() {
  Result<ScenarioSpec> base = Fig4SystemSpec("Lion", /*clients=*/48);
  SEEMORE_CHECK(base.ok()) << base.status().ToString();
  ScenarioBuilder builder(*std::move(base));
  builder.Name("fig4-primary-crash")
      .Description(
          "Figure 4 (§6.3): Lion, c=m=1, checkpoint period 10000, primary "
          "crashed at t=30ms on a 0-100ms timeline; the throughput dip is "
          "the view-change outage");
  return builder.spec();
}

ScenarioSpec ViewChangeStress() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/41));
  builder.Name("view-change-stress")
      .Description(
          "The Lion primary crashes mid-load (forcing a view change onto "
          "the other trusted replica) and later recovers as a backup, while "
          "a public proxy crash/recovers too; the books must still agree "
          "and every live replica must converge")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(24)
      .Kv(128, 0.5)
      // Frequent checkpoints so recovered replicas can catch up via
      // snapshot even in a --quick smoke run.
      .CheckpointPeriod(128)
      .CrashAt(Millis(50), 0)
      .RecoverAt(Millis(150), 0)
      .CrashAt(Millis(180), 5)
      .RecoverAt(Millis(260), 5)
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(400))
      .CheckConvergence();
  return builder.spec();
}

ScenarioSpec ModeSwitchStorm() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/53));
  builder.Name("mode-switch-storm")
      .Description(
          "§5.4 stress: the live cluster is switched Lion -> Dog -> Peacock "
          "-> Lion -> Dog under load, each switch riding an ordinary view "
          "change; agreement and convergence must survive the churn")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(24)
      .Kv(128, 0.5)
      .SwitchAt(Millis(120), SeeMoReMode::kDog)
      .SwitchAt(Millis(240), SeeMoReMode::kPeacock)
      .SwitchAt(Millis(360), SeeMoReMode::kLion)
      .SwitchAt(Millis(480), SeeMoReMode::kDog)
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(400))
      .CheckConvergence();
  return builder.spec();
}

ScenarioSpec CrossCloudPartition() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/67));
  builder.Name("cross-cloud-partition")
      .Description(
          "The private cloud loses connectivity to the rented public cloud "
          "for 150ms (every Lion quorum spans both clouds, so commits "
          "stall), then the link heals; progress must resume with no "
          "divergence")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(16)
      .Echo(0, 0)
      .PartitionCloudsAt(Millis(150))
      .HealCloudsAt(Millis(300))
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(500))
      .CheckConvergence();
  return builder.spec();
}

/// The two tcp-first robustness scenarios: both default to the process
/// backend (BackendKind::kTcp) so `seemore_ctl --scenario=...` exercises the
/// launcher's control channel, but they remain plain specs — `--smoke` and
/// the sim backend run them through SimNetwork's equivalent fault hooks.
ScenarioSpec ByzBackupTcp() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/97));
  builder.Name("byz-backup-tcp")
      .Description(
          "A public backup turns Byzantine (wrong votes + lying to clients) "
          "mid-load on the real-process backend: the launcher flips the "
          "replica's behaviour flags over the control channel, and the "
          "honest majority must keep committing and converge without it")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Backend(BackendKind::kTcp)
      .Clients(16)
      .Kv(128, 0.5)
      .ByzantineAt(Millis(150), 3, kByzWrongVotes | kByzLieToClients)
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(500))
      .CheckConvergence();
  return builder.spec();
}

ScenarioSpec OneWayLink() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/101));
  builder.Name("one-way-link")
      .Description(
          "Asymmetric failure: replica 3 can hear replica 0 but frames "
          "3 -> 0 vanish for 150ms (the classic half-open link TCP alone "
          "cannot model), then the direction is restored; the protocol must "
          "ride out the asymmetry and converge")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Backend(BackendKind::kTcp)
      .Clients(16)
      .Echo(0, 0)
      .CutLinkAt(Millis(150), 3, 0)
      .RestoreLinkAt(Millis(300), 3, 0)
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(500))
      .CheckConvergence();
  return builder.spec();
}

/// The kill-restart / kill-rejoin twins differ in exactly one schedule
/// event: the comeback replica is either a FRESH process rebuilt from its
/// durable WAL + snapshot store (restart) or the crashed process resuming
/// with its memory intact (rejoin). With fsync_interval 1 and a process
/// kill (which loses no appended bytes), the restored state must be
/// behaviorally identical to the retained one — tests/recovery_test.cc
/// asserts the pair agrees on verdicts and final state digests.
ScenarioSpec KillComeback(bool durable_restart, int replica,
                          const std::string& role, uint64_t seed) {
  ScenarioBuilder builder(PaperBaseSpec(seed));
  const std::string kind = durable_restart ? "kill-restart-" : "kill-rejoin-";
  const std::string comeback =
      durable_restart
          ? "a fresh process restores it from the durable WAL + snapshots"
          : "the same process rejoins with its memory intact";
  builder.Name(kind + role)
      .Description("Lion " + role + " (replica " + std::to_string(replica) +
                   ") is killed mid-load and " + comeback +
                   "; agreement and convergence must hold, and the twin "
                   "scenario (kill-" +
                   std::string(durable_restart ? "rejoin" : "restart") + "-" +
                   role + ") must end in the same state")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(16)
      .Kv(128, 0.5)
      .CheckpointPeriod(64)
      // One oversized segment: the run never rolls the log, so the compacted
      // WAL a restart leaves behind and the longer WAL a rejoin keeps charge
      // identical append costs from the comeback on.
      .Durability(/*fsync_interval=*/1, /*segment_bytes=*/1 << 20)
      .CrashAt(Millis(60), replica);
  if (durable_restart) {
    builder.RestartAt(Millis(280), replica);
  } else {
    builder.RecoverAt(Millis(280), replica);
  }
  builder.Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(400))
      .CheckConvergence();
  return builder.spec();
}

/// Regression pin for the laggard catch-up bug: a public replica crashes
/// mid-load and comes back far behind the frontier. In Lion/Dog the trusted
/// primary's next signed checkpoint triggers the state fetch; in Peacock the
/// crash of replica 2 (the untrusted primary of view 0) additionally forces
/// a view change the sleeper never hears about, so the comeback replica must
/// first re-learn the view via a relayed NEW-VIEW (kSmNewViewRequest) and
/// only then catch up through the quorum-stable checkpoint. The restart twin
/// replays the same schedule against a fresh process restored from the
/// durable store (which re-enters the pre-crash view from disk and must take
/// the identical catch-up path).
ScenarioSpec LaggardCatchup(SeeMoReMode mode, bool durable_restart) {
  const std::string role = mode == SeeMoReMode::kLion
                               ? "lion"
                               : (mode == SeeMoReMode::kDog ? "dog"
                                                            : "peacock");
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/89));
  const std::string comeback = durable_restart
                                   ? "a fresh process restores it from disk"
                                   : "it rejoins with its memory intact";
  builder.Name("catchup-" + role + (durable_restart ? "-restart" : ""))
      .Description("Laggard catch-up in " + role +
                   " mode: public replica 2 is crashed mid-load and " +
                   comeback + " far behind the frontier (in Peacock it also "
                   "slept through the view change its own crash forced); by "
                   "the post-drain check it must have re-joined the view, "
                   "state-transferred through a stable checkpoint and "
                   "executed the full prefix")
      .SeeMoRe(mode, 1, 1)
      .Clients(16)
      .Kv(128, 0.5)
      .CheckpointPeriod(128)
      .CrashAt(Millis(80), 2);
  if (durable_restart) {
    builder.Durability(/*fsync_interval=*/1, /*segment_bytes=*/1 << 20)
        .RestartAt(Millis(250), 2);
  } else {
    builder.RecoverAt(Millis(250), 2);
  }
  builder.Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(400))
      .CheckConvergence();
  return builder.spec();
}

ScenarioSpec PowerLossCheckpoint() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/79));
  builder.Name("power-loss-checkpoint")
      .Description(
          "Replica 1 loses power mid-run with batched fsyncs (interval 64), "
          "so its disk rolls back to the durable frontier and the log tail "
          "is torn; the restart must truncate the torn tail, restore the "
          "newest intact snapshot, replay what survived and rejoin without "
          "divergence")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(16)
      .Kv(128, 0.5)
      .CheckpointPeriod(32)
      .Durability(/*fsync_interval=*/64)
      .PowerLossAt(Millis(150), 1)
      .RestartAt(Millis(300), 1)
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(400))
      .CheckConvergence();
  return builder.spec();
}

ScenarioSpec WalCorruptionRefusal() {
  ScenarioBuilder builder(PaperBaseSpec(/*seed=*/83));
  builder.Name("wal-corruption-refusal")
      .Description(
          "A public proxy is killed and a bit deep in its WAL is flipped "
          "while it is down; the restart must be REFUSED with a typed "
          "corruption error (valid records past the damage prove bytes were "
          "altered, not torn), the replica stays dead, and the cluster "
          "finishes without it")
      .SeeMoRe(SeeMoReMode::kLion, 1, 1)
      .Clients(16)
      .Kv(128, 0.5)
      .CheckpointPeriod(64)
      .Durability(/*fsync_interval=*/1)
      .CrashAt(Millis(80), 2)
      .CorruptLogAt(Millis(120), 2, /*offset_from_end=*/2048)
      .RestartAt(Millis(200), 2)
      .Warmup(Millis(100))
      .Measure(Millis(500))
      .Drain(Millis(400))
      .CheckConvergence();
  return builder.spec();
}

const std::vector<NamedScenario>& AllScenarios() {
  static const std::vector<NamedScenario> kScenarios = [] {
    std::vector<std::function<ScenarioSpec()>> factories;
    for (const std::string& system : PaperSystemNames()) {
      factories.push_back([system] { return Fig2aSystem(system); });
    }
    factories.push_back([] { return Fig3Payload(4, 0); });
    factories.push_back([] { return Fig3Payload(0, 4); });
    factories.push_back(Fig4PrimaryCrash);
    factories.push_back(ViewChangeStress);
    factories.push_back(ModeSwitchStorm);
    factories.push_back(CrossCloudPartition);
    factories.push_back(ByzBackupTcp);
    factories.push_back(OneWayLink);
    factories.push_back([] {
      return KillComeback(/*durable_restart=*/true, /*replica=*/0, "primary",
                          /*seed=*/71);
    });
    factories.push_back([] {
      return KillComeback(/*durable_restart=*/false, /*replica=*/0, "primary",
                          /*seed=*/71);
    });
    factories.push_back([] {
      return KillComeback(/*durable_restart=*/true, /*replica=*/1, "backup",
                          /*seed=*/73);
    });
    factories.push_back([] {
      return KillComeback(/*durable_restart=*/false, /*replica=*/1, "backup",
                          /*seed=*/73);
    });
    for (SeeMoReMode mode : {SeeMoReMode::kLion, SeeMoReMode::kDog,
                             SeeMoReMode::kPeacock}) {
      factories.push_back(
          [mode] { return LaggardCatchup(mode, /*durable_restart=*/false); });
      factories.push_back(
          [mode] { return LaggardCatchup(mode, /*durable_restart=*/true); });
    }
    factories.push_back(PowerLossCheckpoint);
    factories.push_back(WalCorruptionRefusal);
    // The registry entry is derived from the spec each factory actually
    // produces, so the listed name/description can never drift from what
    // FindScenario returns (and what reports record).
    std::vector<NamedScenario> scenarios;
    for (auto& factory : factories) {
      const ScenarioSpec spec = factory();
      scenarios.push_back(
          {{spec.name, spec.description}, std::move(factory)});
    }
    return scenarios;
  }();
  return kScenarios;
}

}  // namespace

const std::vector<RegistryEntry>& Registry() {
  static const std::vector<RegistryEntry> kEntries = [] {
    std::vector<RegistryEntry> entries;
    for (const NamedScenario& scenario : AllScenarios()) {
      entries.push_back(scenario.entry);
    }
    return entries;
  }();
  return kEntries;
}

Result<ScenarioSpec> FindScenario(const std::string& name) {
  for (const NamedScenario& scenario : AllScenarios()) {
    if (scenario.entry.name == name) return scenario.make();
  }
  return Status::NotFound("no scenario named \"" + name +
                          "\" (seemore_ctl --list-scenarios)");
}

void ApplyQuickBudgets(ScenarioSpec& spec) {
  spec.plan.warmup = std::min<SimTime>(spec.plan.warmup, Millis(100));
  spec.plan.measure = std::min<SimTime>(spec.plan.measure, Millis(250));
  spec.plan.drain = std::min<SimTime>(spec.plan.drain, Millis(250));
  spec.plan.sweep_clients.clear();
}

}  // namespace scenario
}  // namespace seemore
