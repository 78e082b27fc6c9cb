// Real-cluster launcher: runs one ScenarioSpec against actual seemore_node
// processes on localhost — the tcp backend of seemore_ctl (DESIGN.md §12).
//
// The launcher spawns one node process per replica and hosts every
// closed-loop SimClient on its own EventLoop/TcpTransport, so measurement
// happens where requests originate, as in the simulator. Its fault
// controller and clients share one connection per replica (the controller
// registers first and HELLOs them; rt/tcp_transport.h). It is the
// schedule's scenario::FaultTarget: crash and power loss are SIGKILLs,
// recover and restart respawn the process (on its durable data dir when
// the spec enables durability), WAL tampering edits the dead process's
// files, and everything else is a CONTROL frame to the nodes. A
// crash-primary asks the live nodes who the primary is and acts once they
// have all answered (at most 50 ms later). At the end it SIGTERMs the
// survivors and judges their reports with scenario::CheckVerdict; a node
// that died on its own, or an event left unresolved, fails the run.
//
// Bring-up and teardown run on events, not sleeps. The launcher binds each
// node's listener before spawning it (the node inherits the socket), so no
// dial is refused; each node sends kReady once its replica mesh is up, and
// the readiness gate passes on the last such event with every client
// linked to every replica. Teardown waits on the nodes' exits (pidfds).
//
// Timeline semantics match the simulator's lifecycle: t=0 is when the
// readiness gate passed; warmup resets client stats; the
// measure window sizes the RunResult; then clients stop, the drain elapses
// and nodes shut down. Times are real nanoseconds instead of virtual ones.

#ifndef SEEMORE_RT_LAUNCHER_H_
#define SEEMORE_RT_LAUNCHER_H_

#include <string>
#include <vector>

#include "harness/runner.h"
#include "rt/event_loop.h"
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
  /// Readiness gate: how long to wait for every node's replica mesh and
  /// every client link.
  SimTime connect_timeout = Seconds(15);
  /// After SIGTERM, how long nodes get to write reports before SIGKILL.
  SimTime shutdown_grace = Seconds(5);
  bool keep_work_dir = false;
  bool verbose = false;
};

/// Where a run's setup and teardown time went, in real milliseconds. The
/// first three are times since launch: the last node spawned, the last
/// node reported its replica mesh up (kReady), and every launcher
/// principal held a link to every replica. reap_ms is how long teardown
/// took from SIGTERM to the last node reaped.
struct TcpLifecycle {
  double spawn_ms = 0;
  double mesh_ready_ms = 0;
  double clients_ready_ms = 0;
  double reap_ms = 0;

  Json ToJson() const;
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

  TcpLifecycle lifecycle;

  /// The launcher process's own cost over the call, in the node reports'
  /// shape: its loop's wakeups ("loop.wakeups") and its CPU time and
  /// context switches ("rusage").
  uint64_t loop_wakeups = 0;
  ProcessUsage rusage;

  Json ToJson() const;
};

/// Spec constraints the tcp backend imposes (checked before any spawn):
/// no sweep plan (one process cluster per call). Every schedule kind runs
/// through the shared interpreter, so none is rejected.
Status ValidateForTcp(const scenario::ScenarioSpec& spec);

/// Run the spec against a real localhost cluster. Fails on spawn/setup
/// errors (including a port block outside 1..65535); an invariant
/// violation is NOT an error (inspect report.ok()).
Result<TcpRunReport> RunTcpScenario(const scenario::ScenarioSpec& spec,
                                    const LauncherOptions& options);

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_LAUNCHER_H_
