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
  SiftUp(heap_.size() - 1);
  ++live_;
  // gen >= 1, so ids are never 0 (the TimerService contract).
  return (static_cast<EventId>(slot.gen) << 32) | index;
}

void TimerHeap::SiftUp(size_t pos) {
  const Entry moving = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Earlier(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void TimerHeap::SiftDown(size_t pos) {
  const size_t size = heap_.size();
  const Entry moving = heap_[pos];
  for (;;) {
    const size_t first = pos * kArity + 1;
    if (first >= size) break;
    const size_t end = std::min(first + kArity, size);
    size_t best = first;
    for (size_t child = first + 1; child < end; ++child) {
      if (Earlier(heap_[child], heap_[best])) best = child;
    }
    if (!Earlier(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moving;
}

void TimerHeap::RemoveTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
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
  // Re-heapify bottom-up, from the last parent to the root.
  if (heap_.size() > 1) {
    for (size_t pos = (heap_.size() - 2) / kArity + 1; pos-- > 0;) {
      SiftDown(pos);
    }
  }
  tombstones_ = 0;
}

bool TimerHeap::NextDeadline(SimTime* when) {
  while (!heap_.empty() && !EntryLive(heap_.front())) {
    RemoveTop();
    --tombstones_;
  }
  if (heap_.empty()) return false;
  *when = heap_.front().when;
  return true;
}

std::function<void()> TimerHeap::PopNext() {
  const uint32_t index = heap_.front().slot;
  RemoveTop();
  std::function<void()> fn = std::move(slots_[index].fn);
  ReleaseSlot(index);
  --live_;
  return fn;
}

}  // namespace seemore
