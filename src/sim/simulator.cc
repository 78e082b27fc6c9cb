#include "sim/simulator.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {

Simulator::Simulator(uint64_t seed) : seed_(seed), rng_(seed) {}

EventId Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  SEEMORE_CHECK(when >= now_) << "event scheduled in the past";
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  heap_.push_back(HeapEntry{when, next_seq_++, index, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  ++live_events_;
  return MakeId(index, slot.gen);
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;  // release captured state (payload refs) immediately
  slot.live = false;
  ++slot.gen;  // invalidates the EventId and any heap tombstone
  free_slots_.push_back(index);
}

bool Simulator::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || slot.gen != gen) return false;
  ReleaseSlot(index);
  --live_events_;
  ++tombstones_;
  MaybeCompact();
  return true;
}

void Simulator::MaybeCompact() {
  if (tombstones_ < 64 || tombstones_ * 2 <= heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               return !EntryLive(e);
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later);
  tombstones_ = 0;
}

void Simulator::PruneTop() {
  while (!heap_.empty() && !EntryLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
    --tombstones_;
  }
}

void Simulator::FireTop() {
  const HeapEntry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  std::function<void()> fn = std::move(slots_[entry.slot].fn);
  ReleaseSlot(entry.slot);
  --live_events_;
  now_ = entry.when;
  ++executed_events_;
  fn();  // may schedule (growing the slab) — entry/slot refs are dead here
}

void Simulator::Run() {
  for (;;) {
    PruneTop();
    if (heap_.empty()) return;
    FireTop();
  }
}

void Simulator::RunUntil(SimTime deadline) {
  for (;;) {
    PruneTop();
    if (heap_.empty() || heap_.front().when > deadline) break;
    FireTop();
  }
  if (now_ < deadline) now_ = deadline;
}

bool Simulator::Step() {
  PruneTop();
  if (heap_.empty()) return false;
  FireTop();
  return true;
}

}  // namespace seemore
