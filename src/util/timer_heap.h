// Pending timers of one TimerService, earliest deadline first.
//
// The one timer store of both runtimes: the Simulator's event queue and
// rt::EventLoop's timers. Timers live in a slab of pooled slots addressed
// by an EventId that packs (slot index, generation); the ready queue is a
// 4-ary heap of POD entries over that slab, ordered by (deadline, push
// order), so equal deadlines fire first-in first-out and a seeded sim run
// replays the same interleaving. Push order is unique, so the order is
// total and the pop sequence does not depend on the heap's shape; four
// children per node halve the depth a push or pop sifts through. Once
// warm, Push and Cancel allocate nothing beyond what the callback itself
// needs (a std::function stores a small trivially-copyable capture
// inline). Cancel is O(1): it frees the slot, releasing the callback
// immediately, and leaves a tombstone in the heap that is dropped when it
// reaches the top or compacted away once tombstones outnumber live
// entries, so schedule/cancel churn (view-change timers, client timeouts)
// cannot grow the heap.

#ifndef SEEMORE_UTIL_TIMER_HEAP_H_
#define SEEMORE_UTIL_TIMER_HEAP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace seemore {

class TimerHeap {
 public:
  TimerHeap() = default;

  TimerHeap(const TimerHeap&) = delete;
  TimerHeap& operator=(const TimerHeap&) = delete;

  /// Arm `fn` for `when`. The returned id is never 0.
  EventId Push(SimTime when, std::function<void()> fn);

  /// Disarm a pending timer. Returns false if it already fired or was
  /// cancelled (or `id` was never issued).
  bool Cancel(EventId id);

  /// The earliest pending deadline in `*when`; false when nothing is
  /// pending. Drops cancelled entries off the top of the heap.
  bool NextDeadline(SimTime* when);

  /// Remove the earliest pending timer and return its callback. Call only
  /// after NextDeadline returned true. The timer's id is dead before the
  /// caller runs the callback, so a Cancel of it returns false.
  std::function<void()> PopNext();

  /// Armed, not-yet-fired, not-cancelled timers.
  size_t pending() const { return live_; }
  /// Heap entries, including cancelled tombstones not yet reclaimed;
  /// O(pending()) thanks to compaction.
  size_t queued_entries() const { return heap_.size(); }
  /// Slots in the pool (high-water mark of concurrently pending timers).
  size_t slab_size() const { return slots_.size(); }

 private:
  struct Slot {
    std::function<void()> fn;
    uint32_t gen = 1;   // bumped on release; stale ids and entries miss
    bool live = false;  // armed and not cancelled
  };

  struct Entry {
    SimTime when;
    uint64_t seq;  // push order; breaks deadline ties
    uint32_t slot;
    uint32_t gen;
  };
  static constexpr size_t kArity = 4;
  /// The heap's order: `a` fires before `b`.
  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  /// Restore the heap order for the entry at `pos` by moving it towards
  /// the root (after a push) or the leaves (after it replaced the top, or
  /// when re-heapifying after compaction).
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  /// Drop heap_.front(), live or not.
  void RemoveTop();

  bool EntryLive(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen == e.gen && s.live;
  }
  /// Return the slot to the pool and invalidate outstanding ids.
  void ReleaseSlot(uint32_t index);
  /// Sweep all tombstones once they outnumber live entries.
  void MaybeCompact();

  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Entry> heap_;
  size_t tombstones_ = 0;  // cancelled entries still in heap_
};

}  // namespace seemore

#endif  // SEEMORE_UTIL_TIMER_HEAP_H_
