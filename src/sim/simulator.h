// Deterministic discrete-event simulator.
//
// All protocol experiments run on virtual time: events fire in (time,
// insertion-order) order, so a given seed reproduces the exact same
// interleaving on every run and platform. This is the substitution for the
// paper's AWS testbed (see DESIGN.md §1).
//
// Engine internals (DESIGN.md §"Engine internals"): events live in a
// TimerHeap (util/timer_heap.h), the slab + 4-ary heap that rt::EventLoop
// also keeps its timers in. Scheduling costs one heap push and at most one
// slot (re)initialization; cancellation is O(1) and releases the callback
// immediately, and tombstone compaction keeps schedule/cancel churn
// (view-change timers) from growing the queue. The engine's hottest
// callers keep their callbacks within std::function's inline buffer: a
// message's arrival event captures only the network and a pooled delivery
// slot, and a CPU drain event only the CPU (net/network.h), so a warm run
// schedules them without allocating.

#ifndef SEEMORE_SIM_SIMULATOR_H_
#define SEEMORE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>

#include "net/transport.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/timer_heap.h"

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

  bool Idle() const { return events_.pending() == 0; }
  /// Number of scheduled, not-yet-fired, not-cancelled events.
  size_t pending_events() const { return events_.pending(); }
  uint64_t executed_events() const { return executed_events_; }

 private:
  /// Pop and execute the earliest event, due at `when`.
  void FireNext(SimTime when);

  SimTime now_ = 0;
  uint64_t executed_events_ = 0;
  TimerHeap events_;

  uint64_t seed_;
  Rng rng_;
};

}  // namespace seemore

#endif  // SEEMORE_SIM_SIMULATOR_H_
