// Simulated cloud network: zone-aware latency, bandwidth, loss, duplication,
// partitions, plus a single-threaded CPU queue per node.
//
// Properties mirrored from the paper's model (§3.1):
//   - Point-to-point, pairwise-authenticated channels: delivery always
//     reports the true sender id; a Byzantine node cannot forge another
//     node's identity (it *can* send different payloads to different peers).
//   - Asynchrony: messages may be dropped, delayed, duplicated or reordered
//     (jitter + drops + dups are all seedable knobs).
//   - Liveness experiments use bounded jitter, i.e. partial synchrony.
//
// The per-message path allocates nothing once warm: an in-flight message
// waits in a pooled delivery slot, its arrival event captures only the
// network and the slot index (small enough for std::function's inline
// buffer), nodes live in flat tables indexed by principal id, and each
// CPU queue is a reused ring.

#ifndef SEEMORE_NET_NETWORK_H_
#define SEEMORE_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/keystore.h"
#include "net/cost_model.h"
#include "net/fault_plane.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "wire/wire.h"

namespace seemore {

/// Latency profile of one link class: base + uniform jitter in [0, jitter].
struct LinkProfile {
  SimTime base = Micros(100);
  SimTime jitter = Micros(30);
};

struct NetworkConfig {
  LinkProfile intra_private{Micros(80), Micros(20)};
  LinkProfile intra_public{Micros(80), Micros(20)};
  /// Private <-> public. The paper's evaluation places both clouds in one
  /// AWS region, so the default is close to intra-cloud; the Peacock
  /// motivation experiments raise it.
  LinkProfile cross_cloud{Micros(120), Micros(30)};
  LinkProfile client_link{Micros(120), Micros(30)};

  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  /// NIC bandwidth per node (10 Gbit/s default).
  int64_t bandwidth_bytes_per_sec = 1250LL * 1000 * 1000;
  /// Framing overhead added to every message for transmission-time purposes.
  int64_t per_message_overhead_bytes = 64;

  const LinkProfile& ProfileFor(Zone from, Zone to) const;
};

/// Single-threaded CPU of one node: tasks submitted while busy queue up.
/// Protocol handlers call Charge() to account for the work they perform;
/// subsequent tasks (and outgoing messages) see the accumulated delay.
class NodeCpu final : public CpuMeter {
 public:
  explicit NodeCpu(Simulator* sim) : sim_(sim) {}

  NodeCpu(const NodeCpu&) = delete;
  NodeCpu& operator=(const NodeCpu&) = delete;

  /// Enqueue a task that arrived now; it runs when the CPU frees up.
  void Submit(std::function<void()> task);

  /// Enqueue delivery of `payload` to `handler` — the common message path,
  /// stored as a flat queue entry (no closure allocation, the payload is a
  /// refcount bump).
  void SubmitMessage(MessageHandler* handler, PrincipalId from,
                     Payload payload);

  /// Drop all queued work. Used when a node is unregistered: queued tasks
  /// hold raw handler pointers that die with the node's replica.
  void Clear();

  /// Account CPU time to the currently running task.
  void Charge(SimTime cost) override {
    if (cost > 0) busy_until_ += cost;
  }

  /// Earliest time new work (or an outgoing message) can leave this node.
  SimTime AvailableAt() const override {
    return busy_until_ > sim_->now() ? busy_until_ : sim_->now();
  }

  SimTime total_busy() const override { return total_busy_; }

 private:
  /// One queued unit of work: either a message delivery (handler set) or a
  /// generic task.
  struct Task {
    std::function<void()> fn;
    MessageHandler* handler = nullptr;
    PrincipalId from = 0;
    Payload payload;
  };

  /// Append a queued task in place and return it for the caller to fill.
  Task& PushBack();
  /// Slot of the i-th queued task (the ring's size is a power of two).
  size_t RingIndex(size_t i) const {
    return (head_ + i) & (queue_.size() - 1);
  }
  void ScheduleDrain();
  void DrainOne();

  Simulator* sim_;
  SimTime busy_until_ = 0;
  SimTime total_busy_ = 0;
  bool drain_scheduled_ = false;
  /// FIFO ring over reused slots: queue_[RingIndex(i)] for i in
  /// [0, queued_). It grows by doubling and never shrinks.
  std::vector<Task> queue_;
  size_t head_ = 0;
  size_t queued_ = 0;
};

/// Message/byte counters, separable by replica vs. client traffic so the
/// Table 1 experiment can count only inter-replica protocol messages.
/// `bytes` counts payload only; `wire_bytes` additionally includes the
/// per-message framing overhead the transmission-time model charges
/// (NetworkConfig::per_message_overhead_bytes), so bench JSON can report
/// bytes in the cost model's own unit. Like `messages` and `bytes`, the
/// wire counters tally *offered* traffic — messages dropped by partitions,
/// crashes or loss are included (and separately counted in `dropped`).
struct NetCounters {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t replica_to_replica_messages = 0;
  uint64_t replica_to_replica_bytes = 0;
  uint64_t replica_to_replica_wire_bytes = 0;
  uint64_t dropped = 0;

  void Reset() { *this = NetCounters{}; }
};

class SimNetwork : public Transport {
 public:
  SimNetwork(Simulator* sim, NetworkConfig config)
      : sim_(sim), config_(config), faults_(sim->seed()) {}

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Register a node. `cpu` may be null (zero-cost node, used in unit
  /// tests); `handler` must outlive the network.
  void AddNode(PrincipalId id, Zone zone, MessageHandler* handler,
               NodeCpu* cpu);

  /// Transport: AddNode with a network-owned NodeCpu when `metered`.
  CpuMeter* Register(PrincipalId id, Zone zone, MessageHandler* handler,
                     bool metered) override;

  /// Forget a node so its id can be registered again (a replica restart
  /// replaces the process behind the same principal). The node's CPU queue
  /// is cleared; its CPU object stays alive so already-scheduled drain
  /// events are harmless no-ops, and in-flight messages re-resolve the
  /// node entry at delivery time (reaching the new incarnation, exactly as
  /// a rebooted machine's NIC would).
  void Unregister(PrincipalId id);

  /// Send `payload` from `from` to `to`. Departure waits for the sender's
  /// CPU; delivery is submitted to the receiver's CPU queue. The payload is
  /// shared, never copied, however many hops or duplicates it takes.
  void Send(PrincipalId from, PrincipalId to, Payload payload) override;

  /// Send the same payload to every id in `targets` (point-to-point
  /// delivery semantics; one shared buffer regardless of fan-out).
  void Multicast(PrincipalId from, const std::vector<PrincipalId>& targets,
                 const Payload& payload) override;

  /// Detach / reattach a node entirely (models a crashed machine's NIC).
  void SetNodeUp(PrincipalId id, bool up) override;
  /// Link cuts, shaping and the cloud partition (net/fault_plane.h),
  /// consulted once per Send.
  FaultPlane& faults() { return faults_; }

  bool HasNode(PrincipalId id) const { return Find(id) != nullptr; }

  const NetCounters& counters() const { return counters_; }
  void ResetCounters() { counters_.Reset(); }

  const NetworkConfig& config() const { return config_; }
  NetworkConfig& mutable_config() { return config_; }

 private:
  struct NodeEntry {
    Zone zone = Zone::kPrivate;
    MessageHandler* handler = nullptr;
    NodeCpu* cpu = nullptr;
    bool registered = false;
    bool up = true;
  };

  /// A message between its send and its arrival event.
  struct Delivery {
    PrincipalId from = 0;
    PrincipalId to = 0;
    Payload payload;
  };

  /// The registered node `id`, or null. Replicas are indexed by id,
  /// clients by id - kClientIdBase.
  const NodeEntry* Find(PrincipalId id) const;
  /// The table entry of `id`, registered or not; grows the table to hold it.
  NodeEntry& EntryFor(PrincipalId id);
  /// Arrival of the message in delivery slot `slot`.
  void Deliver(uint32_t slot);

  Simulator* sim_;
  NetworkConfig config_;
  std::vector<NodeEntry> replicas_;
  std::vector<NodeEntry> clients_;
  /// In-flight messages; a slot is reused once its message arrives.
  std::vector<Delivery> deliveries_;
  std::vector<uint32_t> free_deliveries_;
  FaultPlane faults_;
  /// CPUs created by Register(); AddNode callers own theirs externally.
  std::vector<std::unique_ptr<NodeCpu>> owned_cpus_;
  NetCounters counters_;
};

}  // namespace seemore

#endif  // SEEMORE_NET_NETWORK_H_
