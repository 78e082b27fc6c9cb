// One shared home for every name <-> enum mapping the experiment surface
// speaks: protocol kinds, SeeMoRe modes, Byzantine behaviour flags, workload
// and state-machine kinds, scheduled-event kinds. Both the seemore_ctl flag
// parser and the ScenarioSpec JSON codec go through these, so a scenario
// written as CLI flags and the same scenario written as JSON can never
// drift apart. (ProtocolKindName / SeeMoReModeName in consensus/config.h
// print display names — "SeeMoRe", "Lion"; the identifiers here are the
// lowercase wire/CLI tokens — "seemore", "lion".)

#ifndef SEEMORE_SCENARIO_NAMES_H_
#define SEEMORE_SCENARIO_NAMES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "consensus/config.h"
#include "util/status.h"

namespace seemore {
namespace scenario {

/// Which runtime executes the scenario: the deterministic discrete-event
/// simulator, or real processes over TCP on localhost (src/rt/).
enum class BackendKind : uint8_t {
  kSim = 1,
  kTcp = 2,
};

/// What the clients issue.
enum class WorkloadKind : uint8_t {
  kEcho = 1,  // x-KB request / y-KB reply micro-benchmark (§6)
  kKv = 2,    // mixed PUT/GET over a keyspace
};

/// Which replicated state machine each replica runs.
enum class StateMachineKind : uint8_t {
  kKvStore = 1,
  kLedger = 2,  // hash-chained append-only ledger
};

/// One step of a scenario's fault / switch / partition schedule.
enum class EventKind : uint8_t {
  kCrash = 1,            // crash replica `replica`
  kRecover = 2,          // recover replica `replica`
  kByzantine = 3,        // set `byz_flags` on replica `replica`
  kSwitch = 4,           // SeeMoRe mode switch to `target_mode`
  kCrashPrimary = 5,     // crash whoever is primary at event time
  kPartitionClouds = 6,  // cut every private<->public replica link
  kHealClouds = 7,       // undo kPartitionClouds only (cut/shaped links stay)
  /// The durability events (storage/; require spec.durability.enabled):
  kRestart = 8,      // rebuild crashed replica `replica` from its disk
  kPowerLoss = 9,    // crash `replica` AND roll its disk to durable state
  kTruncateLog = 10, // chop `arg` bytes off the crashed replica's WAL tail
  kCorruptLog = 11,  // flip a bit `arg` bytes before the WAL tail end
  /// Directed-link events (the fault plane; `replica` -> `peer`):
  kCutLink = 12,     // drop all frames replica -> peer (one direction!)
  kRestoreLink = 13, // undo kCutLink for replica -> peer
  kShapeLink = 14,   // extra delay/jitter (+ drop ppm in `arg`) on replica -> peer
};

/// --- protocol kind ("seemore" | "cft" | "bft" | "supright") --------------
const char* ProtocolKindToken(ProtocolKind kind);
Result<ProtocolKind> ProtocolKindFromToken(const std::string& token);
const std::vector<ProtocolKind>& AllProtocolKinds();

/// --- SeeMoRe mode ("lion" | "dog" | "peacock") ---------------------------
const char* SeeMoReModeToken(SeeMoReMode mode);
Result<SeeMoReMode> SeeMoReModeFromToken(const std::string& token);
const std::vector<SeeMoReMode>& AllSeeMoReModes();

/// --- Byzantine behaviours ("silent" | "equivocate" | "wrongvotes" |
/// "lie", '+'-combinable: "wrongvotes+lie") --------------------------------
std::string ByzFlagsToken(uint32_t flags);
Result<uint32_t> ByzFlagsFromToken(const std::string& token);
const std::vector<uint32_t>& AllByzFlagBits();

/// --- backend ("sim" | "tcp") ---------------------------------------------
const char* BackendKindToken(BackendKind kind);
Result<BackendKind> BackendKindFromToken(const std::string& token);
const std::vector<BackendKind>& AllBackendKinds();

/// --- workload kind ("echo" | "kv") ---------------------------------------
const char* WorkloadKindToken(WorkloadKind kind);
Result<WorkloadKind> WorkloadKindFromToken(const std::string& token);
const std::vector<WorkloadKind>& AllWorkloadKinds();

/// --- state machine ("kv" | "ledger") -------------------------------------
const char* StateMachineKindToken(StateMachineKind kind);
Result<StateMachineKind> StateMachineKindFromToken(const std::string& token);
const std::vector<StateMachineKind>& AllStateMachineKinds();

/// --- schedule event ("crash" | "recover" | "byzantine" | "switch" |
/// "crash-primary" | "partition-clouds" | "heal-clouds" | "restart" |
/// "power-loss" | "truncate-log" | "corrupt-log" | "cut-link" |
/// "restore-link" | "shape-link") ------------------------------------------
const char* EventKindToken(EventKind kind);
Result<EventKind> EventKindFromToken(const std::string& token);
const std::vector<EventKind>& AllEventKinds();
/// " | "-joined tokens of `kinds` — shared by every "supported events are
/// ..." error message, so the text can't drift from the actual table.
std::string EventKindTokenList(const std::vector<EventKind>& kinds);

}  // namespace scenario
}  // namespace seemore

#endif  // SEEMORE_SCENARIO_NAMES_H_
