// Named canonical scenarios: the paper's evaluation points (§6, Figures
// 2-4) plus the repository's stress scenarios (view-change stress,
// mode-switch storm, cross-cloud partition), all expressed as ScenarioSpecs
// so `seemore_ctl --scenario=<name>`, the benches and CI smoke runs share
// one definition. Also the home of the paper-calibrated cost/network models.

#ifndef SEEMORE_SCENARIO_REGISTRY_H_
#define SEEMORE_SCENARIO_REGISTRY_H_

#include <string>
#include <vector>

#include "scenario/spec.h"

namespace seemore {
namespace scenario {

/// CPU cost model calibrated so peak throughputs land in the paper's range
/// (tens of Kreq/s) with BFT-SMaRt-like MAC-vector message authentication;
/// see DESIGN.md §1 for the substitution argument.
CostModel PaperCostModel();

/// One-datacenter network (§6.1: both clouds in a single AWS region):
/// ~80us one-way with jitter, 10 Gbit/s NICs.
NetworkConfig PaperNetwork();

/// Paper-methodology defaults shared by every §6 experiment: cost/network
/// models above, BFT-SMaRt-style batching (one consensus instance in flight
/// at a time, everything pending folded into the next batch), 100ms client
/// retransmit, checkpoint period 1024.
ScenarioSpec PaperBaseSpec(uint64_t seed);

/// The six systems compared throughout §6: "BFT", "S-UpRight", "Peacock",
/// "Dog", "Lion", "CFT". For failure budget (c, m) the hybrid systems
/// deploy 2c private + 3m+1 public nodes and the flat ones use f = c+m.
const std::vector<std::string>& PaperSystemNames();

/// PaperBaseSpec configured as one named §6 system under budget (c, m).
/// Fails on an unknown system name.
Result<ScenarioSpec> PaperSystemSpec(const std::string& system, int c, int m,
                                     uint64_t seed);

/// The Figure 4 (§6.3) regime for one §6 system at c=m=1: 0/0 payload,
/// checkpoint period 10000, an aggressive failure detector (8ms suspicion,
/// 12ms client retransmit), the primary crashed at t=30ms on a 0-100ms
/// horizon, and a 2ms-bucket completion timeline. Single source for both
/// `seemore_ctl --bench=fig4` and the registry's "fig4-primary-crash" entry.
Result<ScenarioSpec> Fig4SystemSpec(const std::string& system, int clients);

/// --- the named-scenario registry -----------------------------------------

struct RegistryEntry {
  std::string name;
  std::string description;
};

/// All registered scenarios, in a stable order.
const std::vector<RegistryEntry>& Registry();

/// Look a canonical scenario up by name.
Result<ScenarioSpec> FindScenario(const std::string& name);

/// Shrink a spec to the smoke-run budgets (the regime `seemore_ctl
/// --quick`/`--smoke` and CI use, and that the parallel determinism tests
/// replicate): warmup <= 100ms, measure <= 250ms, drain <= 250ms, sweep
/// cleared. One definition so tool, CI and tests can never drift.
void ApplyQuickBudgets(ScenarioSpec& spec);

}  // namespace scenario
}  // namespace seemore

#endif  // SEEMORE_SCENARIO_REGISTRY_H_
