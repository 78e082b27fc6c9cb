// Deterministic discrete-event simulator.
//
// All protocol experiments run on virtual time: events fire in (time,
// insertion-order) order, so a given seed reproduces the exact same
// interleaving on every run and platform. This is the substitution for the
// paper's AWS testbed (see DESIGN.md §1).
//
// Engine internals (DESIGN.md §"Engine internals"): events live in a
// slab of pooled slots addressed by a handle that packs (slot index,
// generation); the ready queue is a plain binary heap of POD entries over
// that slab. Scheduling costs one heap push and at most one slot
// (re)initialization — no hash lookups, no per-event map nodes.
// Cancellation is O(1): it frees the slot (releasing the callback
// immediately) and leaves a lazily-deleted tombstone in the heap, which is
// compacted away once tombstones outnumber live entries, so schedule/cancel
// churn (view-change timers) cannot grow the queue unboundedly.

#ifndef SEEMORE_SIM_SIMULATOR_H_
#define SEEMORE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/transport.h"
#include "util/rng.h"
#include "util/time.h"

namespace seemore {

/// The simulator is the TimerService implementation for simulated runs:
/// Now() is virtual time and timers are simulation events.
class Simulator : public TimerService {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }
  /// The run seed `rng()` was seeded with.
  uint64_t seed() const { return seed_; }

  /// --- TimerService ------------------------------------------------------
  SimTime Now() const override { return now_; }
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) override {
    return Schedule(delay, std::move(fn));
  }
  bool CancelEvent(EventId id) override { return Cancel(id); }

  /// Schedule `fn` to run `delay` from now (delay < 0 is clamped to 0).
  EventId Schedule(SimTime delay, std::function<void()> fn);

  /// Schedule `fn` at an absolute virtual time (>= now).
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled. O(1): the callback is released immediately; the heap keeps
  /// a tombstone until the next pop or compaction.
  bool Cancel(EventId id);

  /// Run events until the queue is empty.
  void Run();

  /// Run events with time <= deadline; afterwards now() == deadline if any
  /// event advanced that far (now() never exceeds deadline).
  void RunUntil(SimTime deadline);

  /// Run exactly one event. Returns false if the queue is empty.
  bool Step();

  bool Idle() const { return live_events_ == 0; }
  /// Number of scheduled, not-yet-fired, not-cancelled events.
  size_t pending_events() const { return live_events_; }
  /// Heap entries currently allocated, including cancelled tombstones not
  /// yet reclaimed. Bounded by O(pending_events) thanks to compaction —
  /// tests/sim_test.cc pins this down.
  size_t queued_entries() const { return heap_.size(); }
  /// Slots in the pool (high-water mark of concurrently pending events).
  size_t slab_size() const { return slots_.size(); }
  uint64_t executed_events() const { return executed_events_; }

 private:
  struct Slot {
    std::function<void()> fn;
    uint32_t gen = 1;   // bumped on release; stale heap entries miss
    bool live = false;  // armed and not cancelled
  };

  /// POD heap entry; ordering is (when, seq) exactly as the seed engine's
  /// priority_queue, so event interleavings are bit-identical.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;  // insertion order; breaks ties deterministically
    uint32_t slot;
    uint32_t gen;
  };
  /// std::push_heap/pop_heap build a max-heap; "later fires last" makes the
  /// front the earliest event.
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    // gen >= 1, so ids are never 0 (the TimerService contract).
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  bool EntryLive(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen == e.gen && s.live;
  }

  /// Return the slot to the pool and invalidate outstanding handles.
  void ReleaseSlot(uint32_t index);
  /// Pop tombstones off the heap top until it is live or empty.
  void PruneTop();
  /// Sweep all tombstones once they outnumber live entries.
  void MaybeCompact();
  /// Pop and execute the (live) top entry.
  void FireTop();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_events_ = 0;
  uint64_t executed_events_ = 0;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  size_t tombstones_ = 0;  // cancelled entries still in heap_

  uint64_t seed_;
  Rng rng_;
};

}  // namespace seemore

#endif  // SEEMORE_SIM_SIMULATOR_H_
