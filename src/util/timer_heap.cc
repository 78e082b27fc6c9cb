#include "util/timer_heap.h"

#include <algorithm>

namespace seemore {

EventId TimerHeap::Push(SimTime when, std::function<void()> fn) {
  uint32_t index = 0;
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
  heap_.push_back(Entry{when, next_seq_++, index, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  ++live_;
  // gen >= 1, so ids are never 0 (the TimerService contract).
  return (static_cast<EventId>(slot.gen) << 32) | index;
}

void TimerHeap::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;  // release captured state (payload refs) immediately
  slot.live = false;
  ++slot.gen;  // invalidates the EventId and any heap tombstone
  free_slots_.push_back(index);
}

bool TimerHeap::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || slot.gen != gen) return false;
  ReleaseSlot(index);
  --live_;
  ++tombstones_;
  MaybeCompact();
  return true;
}

void TimerHeap::MaybeCompact() {
  if (tombstones_ < 64 || tombstones_ * 2 <= heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !EntryLive(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later);
  tombstones_ = 0;
}

bool TimerHeap::NextDeadline(SimTime* when) {
  while (!heap_.empty() && !EntryLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
    --tombstones_;
  }
  if (heap_.empty()) return false;
  *when = heap_.front().when;
  return true;
}

std::function<void()> TimerHeap::PopNext() {
  const uint32_t index = heap_.front().slot;
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  std::function<void()> fn = std::move(slots_[index].fn);
  ReleaseSlot(index);
  --live_;
  return fn;
}

}  // namespace seemore
