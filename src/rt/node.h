// One SeeMoRe replica as a real process: the composition root seemore_node
// wraps. Shares harness/cluster.h's wiring — RunKeySeed, MakeReplica, the
// recover -> reopen -> restore restart sequence — but over the rt backend
// (EventLoop + TcpTransport + PosixMedium) instead of the simulator.
//
// Protocol code is identical in both worlds; only this file and the
// launcher know which backend is underneath. A node runs until SIGTERM (the
// launcher's orderly stop), then writes a per-node report JSON whose
// digest samples feed the launcher's ReplicaOutcomes (scenario/verdict.h).

#ifndef SEEMORE_RT_NODE_H_
#define SEEMORE_RT_NODE_H_

#include <memory>
#include <optional>
#include <string>

#include "consensus/replica_base.h"
#include "harness/cluster.h"
#include "rt/event_loop.h"
#include "rt/posix_medium.h"
#include "rt/tcp_transport.h"
#include "scenario/spec.h"
#include "storage/file_store.h"

namespace seemore {
namespace rt {

struct NodeOptions {
  int replica_id = 0;
  uint16_t base_port = 18500;
  /// Durable data directory. Empty disables durability even when the spec
  /// asks for it (the launcher only passes one for --durable runs). A
  /// directory holding WAL/snapshot files triggers the restart-recovery
  /// path instead of a fresh open.
  std::string data_dir;
  /// Where the end-of-run report JSON goes ("" = stdout).
  std::string report_path;
  /// Hard runtime cap (orphan protection when the launcher dies); <= 0
  /// means none.
  SimTime max_run = 0;
};

class Node {
 public:
  Node(scenario::ScenarioSpec spec, NodeOptions options);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Build everything (loop, transport, durable store + recovery, replica).
  /// Fails on invalid spec / port bind / corrupt durable state.
  Status Init();

  /// Serve until SIGTERM/SIGINT (or max_run), then write the report.
  Status Serve();

  /// The per-node report (valid any time after Init).
  Json Report() const;

 private:
  Status InitDurability();
  /// Node-level fault commands forwarded by the transport's control
  /// channel: Byzantine flags (the same SetByzantine path the sim engine
  /// uses), mode-switch requests, primary queries.
  void OnControl(const FaultCommand& command);

  const scenario::ScenarioSpec spec_;
  const NodeOptions options_;

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<KeyStore> keystore_;
  std::unique_ptr<PosixMedium> medium_;
  std::unique_ptr<storage::FileDurableStore> store_;
  std::unique_ptr<ReplicaBase> replica_;
  /// What recovery reconstructed, when this process is a restart.
  std::optional<RestartOutcome> recovery_;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_NODE_H_
