// Real-cluster launcher: runs one ScenarioSpec against actual seemore_node
// processes on localhost — the tcp backend of seemore_ctl (DESIGN.md §12).
//
// The launcher spawns one node process per replica and hosts every
// closed-loop SimClient on its own EventLoop/TcpTransport, so measurement
// happens where requests originate, as in the simulator. It is the
// schedule's scenario::FaultTarget: crash and power loss are SIGKILLs,
// recover and restart respawn the process (on its durable data dir when
// the spec enables durability), WAL tampering edits the dead process's
// files, and everything else is a CONTROL frame to the nodes. At the end it
// SIGTERMs the survivors and judges their reports with scenario::
// CheckVerdict; a node that died on its own fails the run.
//
// Timeline semantics match the simulator's lifecycle: t=0 is when every
// node answered the readiness gate; warmup resets client stats; the
// measure window sizes the RunResult; then clients stop, the drain elapses
// and nodes shut down. Times are real nanoseconds instead of virtual ones.

#ifndef SEEMORE_RT_LAUNCHER_H_
#define SEEMORE_RT_LAUNCHER_H_

#include <string>
#include <vector>

#include "harness/runner.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "util/json.h"
#include "util/status.h"

namespace seemore {
namespace rt {

struct LauncherOptions {
  /// Path to the seemore_node binary; empty resolves the sibling of
  /// /proc/self/exe (tools install both binaries in one directory).
  std::string node_binary;
  /// Scratch directory for spec/report/data files; empty mkdtemps under
  /// /tmp and removes it on success.
  std::string work_dir;
  uint16_t base_port = 18500;
  /// Readiness gate: how long to wait for every node to complete a HELLO.
  SimTime connect_timeout = Seconds(15);
  /// After SIGTERM, how long nodes get to write reports before SIGKILL.
  SimTime shutdown_grace = Seconds(5);
  bool keep_work_dir = false;
  bool verbose = false;
};

/// The merged outcome of one real-cluster run, in ScenarioReport's shape so
/// tools can print sim and tcp runs side by side. The measure window is
/// real time, and events are stamped when their outcome was known.
struct TcpRunReport : scenario::RunReportBase {
  /// Per-node end-of-run reports as written by the processes; a node that
  /// left none (killed by the schedule, or died on its own) contributes a
  /// stub with "crashed": true.
  std::vector<Json> nodes;

  /// Cluster-wide transport counters: the launcher's own TcpTransport (the
  /// client side) plus every node report's "net" object, summed field by
  /// field — the whole-run syscall/copy ledger bench_realnet reads.
  Json net;

  Json ToJson() const;
};

/// Spec constraints the tcp backend imposes (checked before any spawn):
/// no sweep plan (one process cluster per call). Every schedule kind runs
/// through the shared interpreter, so none is rejected.
Status ValidateForTcp(const scenario::ScenarioSpec& spec);

/// Run the spec against a real localhost cluster. Fails on spawn/setup
/// errors; an invariant violation is NOT an error (inspect report.ok()).
Result<TcpRunReport> RunTcpScenario(const scenario::ScenarioSpec& spec,
                                    const LauncherOptions& options);

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_LAUNCHER_H_
