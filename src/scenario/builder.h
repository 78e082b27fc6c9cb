// Fluent construction of ScenarioSpecs. Every method mutates the spec under
// construction and returns the builder, so an experiment reads as one
// sentence:
//
//   ScenarioSpec spec = ScenarioBuilder()
//                           .Name("primary-crash")
//                           .SeeMoRe(SeeMoReMode::kLion, /*c=*/1, /*m=*/1)
//                           .Clients(32)
//                           .CrashPrimaryAt(Millis(30))
//                           .Warmup(Millis(0))
//                           .Measure(Millis(100))
//                           .Timeline(Millis(2))
//                           .Build()
//                           .value();
//
// Build() validates; spec() hands out the raw spec for callers that want to
// keep editing it (benches overriding one knob in a loop).

#ifndef SEEMORE_SCENARIO_BUILDER_H_
#define SEEMORE_SCENARIO_BUILDER_H_

#include <string>
#include <vector>

#include "scenario/spec.h"

namespace seemore {
namespace scenario {

class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  /// Start from an existing spec (e.g. a registry entry) and override.
  explicit ScenarioBuilder(ScenarioSpec base) : spec_(std::move(base)) {}

  ScenarioBuilder& Name(std::string name);
  ScenarioBuilder& Description(std::string description);

  /// --- protocol / topology ----------------------------------------------
  ScenarioBuilder& SeeMoRe(SeeMoReMode mode, int c, int m);
  ScenarioBuilder& Cft(int f);
  ScenarioBuilder& Bft(int f);
  ScenarioBuilder& SUpRight(int c, int m);
  /// Explicit cloud sizes (otherwise derived; see TopologySpec).
  ScenarioBuilder& CloudSizes(int s, int p);
  /// Which runtime the spec targets (sim is the default; see BackendKind).
  ScenarioBuilder& Backend(BackendKind backend);

  /// --- tuning --------------------------------------------------------------
  ScenarioBuilder& Batching(int batch_max, int pipeline_max);
  ScenarioBuilder& CheckpointPeriod(int period);
  ScenarioBuilder& ViewChangeTimeout(SimTime timeout);
  ScenarioBuilder& LionSignAccepts(bool signed_accepts);

  /// --- environment ---------------------------------------------------------
  ScenarioBuilder& Network(const NetworkConfig& net);
  ScenarioBuilder& Costs(const CostModel& costs);
  ScenarioBuilder& Drop(double probability);
  ScenarioBuilder& Duplicate(double probability);
  ScenarioBuilder& CrossCloudLink(SimTime base, SimTime jitter);
  ScenarioBuilder& ClientLink(SimTime base, SimTime jitter);

  /// --- clients / workload --------------------------------------------------
  ScenarioBuilder& Seed(uint64_t seed);
  ScenarioBuilder& Clients(int count);
  ScenarioBuilder& RetransmitTimeout(SimTime timeout);
  ScenarioBuilder& Echo(uint32_t request_kb, uint32_t reply_kb);
  ScenarioBuilder& Kv(int keys, double put_fraction);
  ScenarioBuilder& Ledger();

  /// --- measurement plan ----------------------------------------------------
  ScenarioBuilder& Warmup(SimTime warmup);
  ScenarioBuilder& Measure(SimTime measure);
  ScenarioBuilder& Drain(SimTime drain);
  ScenarioBuilder& Timeline(SimTime bucket);
  ScenarioBuilder& CheckConvergence();
  ScenarioBuilder& Sweep(std::vector<int> client_counts);

  /// --- durability ----------------------------------------------------------
  /// Enable the durable WAL + snapshot store on every replica.
  ScenarioBuilder& Durability(int fsync_interval = 1,
                              uint32_t segment_bytes = 64 * 1024);

  /// --- schedule ------------------------------------------------------------
  ScenarioBuilder& CrashAt(SimTime at, int replica);
  ScenarioBuilder& RecoverAt(SimTime at, int replica);
  ScenarioBuilder& ByzantineAt(SimTime at, int replica, uint32_t byz_flags);
  ScenarioBuilder& SwitchAt(SimTime at, SeeMoReMode mode);
  ScenarioBuilder& CrashPrimaryAt(SimTime at);
  ScenarioBuilder& PartitionCloudsAt(SimTime at);
  ScenarioBuilder& HealCloudsAt(SimTime at);
  ScenarioBuilder& RestartAt(SimTime at, int replica);
  ScenarioBuilder& PowerLossAt(SimTime at, int replica);
  ScenarioBuilder& TruncateLogAt(SimTime at, int replica,
                                 int64_t bytes_from_end);
  ScenarioBuilder& CorruptLogAt(SimTime at, int replica,
                                int64_t offset_from_end);
  /// Directed-link faults: the link `from -> to`, that one direction only.
  ScenarioBuilder& CutLinkAt(SimTime at, int from, int to);
  ScenarioBuilder& RestoreLinkAt(SimTime at, int from, int to);
  ScenarioBuilder& ShapeLinkAt(SimTime at, int from, int to, SimTime delay,
                               SimTime jitter, int64_t drop_ppm);

  /// The spec so far, unvalidated (callers may keep editing).
  const ScenarioSpec& spec() const { return spec_; }
  ScenarioSpec& mutable_spec() { return spec_; }

  /// Validate()d spec, or the first validation error.
  Result<ScenarioSpec> Build() const;

 private:
  ScenarioSpec spec_;
};

}  // namespace scenario
}  // namespace seemore

#endif  // SEEMORE_SCENARIO_BUILDER_H_
