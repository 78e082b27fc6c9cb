#include "net/network.h"

#include <optional>

#include "util/logging.h"

namespace seemore {

const LinkProfile& NetworkConfig::ProfileFor(Zone from, Zone to) const {
  if (from == Zone::kClient || to == Zone::kClient) return client_link;
  if (from == Zone::kPrivate && to == Zone::kPrivate) return intra_private;
  if (from == Zone::kPublic && to == Zone::kPublic) return intra_public;
  return cross_cloud;
}

void NodeCpu::Submit(std::function<void()> task) {
  Task t;
  t.fn = std::move(task);
  Enqueue(std::move(t));
}

void NodeCpu::SubmitMessage(MessageHandler* handler, PrincipalId from,
                            Payload payload) {
  Task t;
  t.handler = handler;
  t.from = from;
  t.payload = std::move(payload);
  Enqueue(std::move(t));
}

void NodeCpu::Enqueue(Task task) {
  queue_.push_back(std::move(task));
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    SimTime start = AvailableAt();
    sim_->ScheduleAt(start, [this] { DrainOne(); });
  }
}

void NodeCpu::DrainOne() {
  drain_scheduled_ = false;
  if (queue_.empty()) return;
  Task task = std::move(queue_.front());
  queue_.pop_front();
  // The task starts now; Charge() calls during the task extend busy_until_.
  SimTime start = sim_->now();
  if (busy_until_ < start) busy_until_ = start;
  if (task.handler != nullptr) {
    task.handler->OnMessage(task.from, std::move(task.payload));
  } else {
    task.fn();
  }
  total_busy_ += busy_until_ - start;
  if (!queue_.empty()) {
    drain_scheduled_ = true;
    sim_->ScheduleAt(AvailableAt(), [this] { DrainOne(); });
  }
}

void SimNetwork::AddNode(PrincipalId id, Zone zone, MessageHandler* handler,
                         NodeCpu* cpu) {
  SEEMORE_CHECK(nodes_.count(id) == 0) << "duplicate node id " << id;
  nodes_[id] = NodeEntry{zone, handler, cpu, /*up=*/true};
}

CpuMeter* SimNetwork::Register(PrincipalId id, Zone zone,
                               MessageHandler* handler, bool metered) {
  NodeCpu* cpu = nullptr;
  if (metered) {
    owned_cpus_.push_back(std::make_unique<NodeCpu>(sim_));
    cpu = owned_cpus_.back().get();
  }
  AddNode(id, zone, handler, cpu);
  return cpu;
}

void SimNetwork::Unregister(PrincipalId id) {
  auto it = nodes_.find(id);
  SEEMORE_CHECK(it != nodes_.end()) << "unregister unknown node " << id;
  if (it->second.cpu != nullptr) it->second.cpu->Clear();
  nodes_.erase(it);
}

Zone SimNetwork::ZoneOf(PrincipalId id) const {
  auto it = nodes_.find(id);
  SEEMORE_CHECK(it != nodes_.end()) << "unknown node " << id;
  return it->second.zone;
}

void SimNetwork::SetNodeUp(PrincipalId id, bool up) {
  auto it = nodes_.find(id);
  SEEMORE_CHECK(it != nodes_.end()) << "unknown node " << id;
  it->second.up = up;
}

void SimNetwork::Send(PrincipalId from, PrincipalId to, Payload payload) {
  auto from_it = nodes_.find(from);
  auto to_it = nodes_.find(to);
  SEEMORE_CHECK(from_it != nodes_.end()) << "send from unknown node " << from;
  if (to_it == nodes_.end()) return;  // receiver never registered: drop
  const NodeEntry& src = from_it->second;
  const NodeEntry& dst = to_it->second;

  const int64_t wire_bytes = static_cast<int64_t>(payload.size()) +
                             config_.per_message_overhead_bytes;

  counters_.messages += 1;
  counters_.bytes += payload.size();
  counters_.wire_bytes += static_cast<uint64_t>(wire_bytes);
  const bool inter_replica =
      !IsClientPrincipal(from) && !IsClientPrincipal(to);
  if (inter_replica) {
    counters_.replica_to_replica_messages += 1;
    counters_.replica_to_replica_bytes += payload.size();
    counters_.replica_to_replica_wire_bytes += static_cast<uint64_t>(wire_bytes);
  }

  // Departure waits for the sender's CPU to finish the work charged so far.
  const SimTime departure =
      src.cpu != nullptr ? src.cpu->AvailableAt() : sim_->now();
  // Link faults first, before any draw from the simulator's RNG: the plane
  // draws shaped drops and jitter from its own generator, so cut and
  // unshaped links consume the exact RNG stream they always have.
  const std::optional<SimTime> hold =
      src.up && dst.up ? faults_.Admit(from, to, departure) : std::nullopt;
  if (!hold.has_value()) {
    counters_.dropped += 1;
    return;
  }
  if (config_.drop_probability > 0.0 &&
      sim_->rng().NextBool(config_.drop_probability)) {
    counters_.dropped += 1;
    return;
  }

  const LinkProfile& link = config_.ProfileFor(src.zone, dst.zone);
  const SimTime transmission =
      wire_bytes * kNanosPerSecond / config_.bandwidth_bytes_per_sec;

  int copies = 1;
  if (config_.duplicate_probability > 0.0 &&
      sim_->rng().NextBool(config_.duplicate_probability)) {
    copies = 2;
  }

  for (int i = 0; i < copies; ++i) {
    SimTime jitter = link.jitter > 0
                         ? static_cast<SimTime>(sim_->rng().NextBounded(
                               static_cast<uint64_t>(link.jitter) + 1))
                         : 0;
    // A shaped link holds the message at the sender, like tcp does before
    // the socket; the link's own latency and jitter follow.
    const SimTime arrival =
        departure + *hold + link.base + jitter + transmission;
    // The closure shares the payload buffer (refcount bump, no byte copy) —
    // a duplicated delivery aliases the same immutable frame.
    sim_->ScheduleAt(arrival, [this, from, to, payload]() mutable {
      // Re-resolve the node at delivery time: the receiver may have crashed
      // while the message was in flight, or been replaced by a restart (the
      // entry captured at send time would dangle).
      auto it = nodes_.find(to);
      if (it == nodes_.end() || !it->second.up) return;
      if (it->second.cpu != nullptr) {
        it->second.cpu->SubmitMessage(it->second.handler, from,
                                      std::move(payload));
      } else {
        it->second.handler->OnMessage(from, std::move(payload));
      }
    });
  }
}

void SimNetwork::Multicast(PrincipalId from,
                           const std::vector<PrincipalId>& targets,
                           const Payload& payload) {
  for (PrincipalId to : targets) {
    if (to == from) continue;
    Send(from, to, payload);  // refcount bump per receiver, one buffer
  }
}

}  // namespace seemore
