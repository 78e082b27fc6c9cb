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
  PushBack().fn = std::move(task);
  ScheduleDrain();
}

void NodeCpu::SubmitMessage(MessageHandler* handler, PrincipalId from,
                            Payload payload) {
  Task& task = PushBack();
  task.handler = handler;
  task.from = from;
  task.payload = std::move(payload);
  ScheduleDrain();
}

NodeCpu::Task& NodeCpu::PushBack() {
  if (queued_ == queue_.size()) {
    // Full: unroll the ring into a buffer twice the size.
    std::vector<Task> grown(queue_.empty() ? 8 : queue_.size() * 2);
    for (size_t i = 0; i < queued_; ++i) {
      grown[i] = std::move(queue_[RingIndex(i)]);
    }
    queue_ = std::move(grown);
    head_ = 0;
  }
  Task& task = queue_[RingIndex(queued_)];
  ++queued_;
  return task;
}

void NodeCpu::Clear() {
  for (size_t i = 0; i < queued_; ++i) queue_[RingIndex(i)] = Task{};
  head_ = 0;
  queued_ = 0;
}

void NodeCpu::ScheduleDrain() {
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  sim_->ScheduleAt(AvailableAt(), [this] { DrainOne(); });
}

void NodeCpu::DrainOne() {
  drain_scheduled_ = false;
  if (queued_ == 0) return;
  Task task = std::move(queue_[head_]);
  queue_[head_] = Task{};  // a reused slot must not keep this handler
  head_ = RingIndex(1);
  --queued_;
  // The task starts now; Charge() calls during the task extend busy_until_.
  SimTime start = sim_->now();
  if (busy_until_ < start) busy_until_ = start;
  if (task.handler != nullptr) {
    task.handler->OnMessage(task.from, std::move(task.payload));
  } else {
    task.fn();
  }
  total_busy_ += busy_until_ - start;
  if (queued_ > 0) {
    drain_scheduled_ = true;
    sim_->ScheduleAt(AvailableAt(), [this] { DrainOne(); });
  }
}

const SimNetwork::NodeEntry* SimNetwork::Find(PrincipalId id) const {
  if (id < 0) return nullptr;
  const bool client = IsClientPrincipal(id);
  const std::vector<NodeEntry>& table = client ? clients_ : replicas_;
  const size_t index = static_cast<size_t>(client ? id - kClientIdBase : id);
  if (index >= table.size() || !table[index].registered) return nullptr;
  return &table[index];
}

SimNetwork::NodeEntry& SimNetwork::EntryFor(PrincipalId id) {
  SEEMORE_CHECK(id >= 0) << "negative node id " << id;
  const bool client = IsClientPrincipal(id);
  std::vector<NodeEntry>& table = client ? clients_ : replicas_;
  const size_t index = static_cast<size_t>(client ? id - kClientIdBase : id);
  if (index >= table.size()) table.resize(index + 1);
  return table[index];
}

void SimNetwork::AddNode(PrincipalId id, Zone zone, MessageHandler* handler,
                         NodeCpu* cpu) {
  SEEMORE_CHECK(Find(id) == nullptr) << "duplicate node id " << id;
  EntryFor(id) = NodeEntry{zone, handler, cpu, /*registered=*/true,
                           /*up=*/true};
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
  SEEMORE_CHECK(Find(id) != nullptr) << "unregister unknown node " << id;
  NodeEntry& entry = EntryFor(id);
  if (entry.cpu != nullptr) entry.cpu->Clear();
  entry = NodeEntry{};
}

void SimNetwork::SetNodeUp(PrincipalId id, bool up) {
  SEEMORE_CHECK(Find(id) != nullptr) << "unknown node " << id;
  EntryFor(id).up = up;
}

void SimNetwork::Send(PrincipalId from, PrincipalId to, Payload payload) {
  const NodeEntry* const src = Find(from);
  SEEMORE_CHECK(src != nullptr) << "send from unknown node " << from;
  const NodeEntry* const dst = Find(to);
  if (dst == nullptr) return;  // receiver never registered: drop

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
      src->cpu != nullptr ? src->cpu->AvailableAt() : sim_->now();
  // Link faults first, before any draw from the simulator's RNG: the plane
  // draws shaped drops and jitter from its own generator, so cut and
  // unshaped links consume the exact RNG stream they always have.
  const std::optional<SimTime> hold =
      src->up && dst->up ? faults_.Admit(from, to, departure) : std::nullopt;
  if (!hold.has_value()) {
    counters_.dropped += 1;
    return;
  }
  if (config_.drop_probability > 0.0 &&
      sim_->rng().NextBool(config_.drop_probability)) {
    counters_.dropped += 1;
    return;
  }

  const LinkProfile& link = config_.ProfileFor(src->zone, dst->zone);
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
    // The slot shares the payload buffer (refcount bump, no byte copy) — a
    // duplicated delivery aliases the same immutable frame. The event
    // captures only (this, slot), which std::function stores inline.
    uint32_t slot = 0;
    if (!free_deliveries_.empty()) {
      slot = free_deliveries_.back();
      free_deliveries_.pop_back();
    } else {
      slot = static_cast<uint32_t>(deliveries_.size());
      deliveries_.emplace_back();
    }
    Delivery& delivery = deliveries_[slot];
    delivery.from = from;
    delivery.to = to;
    if (i + 1 == copies) {
      delivery.payload = std::move(payload);
    } else {
      delivery.payload = payload;
    }
    sim_->ScheduleAt(arrival, [this, slot] { Deliver(slot); });
  }
}

void SimNetwork::Deliver(uint32_t slot) {
  // Free the slot before the handler runs: it may send, and so reuse it.
  Delivery& delivery = deliveries_[slot];
  const PrincipalId from = delivery.from;
  const PrincipalId to = delivery.to;
  Payload payload = std::move(delivery.payload);
  free_deliveries_.push_back(slot);
  // Re-resolve the node at delivery time: the receiver may have crashed
  // while the message was in flight, or been replaced by a restart (the
  // entry seen at send time would name the old incarnation).
  const NodeEntry* const dst = Find(to);
  if (dst == nullptr || !dst->up) return;
  if (dst->cpu != nullptr) {
    dst->cpu->SubmitMessage(dst->handler, from, std::move(payload));
  } else {
    dst->handler->OnMessage(from, std::move(payload));
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
