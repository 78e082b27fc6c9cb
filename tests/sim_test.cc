// Discrete-event simulator and the timer heap it shares with rt::EventLoop:
// ordering, determinism, cancellation, CPU queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/timer_heap.h"

namespace seemore {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(30), [&] { order.push_back(3); });
  sim.Schedule(Millis(10), [&] { order.push_back(1); });
  sim.Schedule(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel fails
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.Schedule(Millis(5), [&] { ++count; });
  sim.Schedule(Millis(15), [&] { ++count; });
  sim.RunUntil(Millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), Millis(10));
  sim.RunUntil(Millis(20));
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(Millis(1), [&] {
    times.push_back(sim.now());
    sim.Schedule(Millis(1), [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Millis(1));
  EXPECT_EQ(times[1], Millis(2));
}

TEST(SimulatorTest, StepRunsOneEvent) {
  Simulator sim;
  int count = 0;
  sim.Schedule(1, [&] { ++count; });
  sim.Schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    uint64_t trace = 0;
    for (int i = 0; i < 100; ++i) {
      SimTime delay = static_cast<SimTime>(sim.rng().NextBounded(1000));
      sim.Schedule(delay, [&trace, i] { trace = trace * 31 + i; });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SimulatorTest, EventIdsAreNeverZeroAndNeverRevived) {
  Simulator sim;
  EventId first = sim.Schedule(Millis(1), [] {});
  EXPECT_NE(first, 0u);
  EXPECT_TRUE(sim.Cancel(first));
  // The freed slot is reused by the next event; the old handle must stay
  // dead (generation check) and the new one must be distinct and live.
  EventId second = sim.Schedule(Millis(2), [] {});
  EXPECT_NE(second, 0u);
  EXPECT_NE(second, first);
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_TRUE(sim.Cancel(second));
}

TEST(SimulatorTest, CancelReleasesCallbackStateImmediately) {
  // Regression: the seed engine kept cancelled callbacks (and anything they
  // captured — payload buffers, replica state) alive until the heap entry
  // drained, which could be arbitrarily late.
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  EventId id = sim.Schedule(Seconds(3600), [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // captured by the pending event
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_TRUE(watch.expired());  // freed at cancel time, not at pop time
}

TEST(TimerHeapTest, ScheduleCancelChurnKeepsQueueBounded) {
  // Regression for the cancelled-timer leak: a long run that keeps arming
  // and cancelling timers (the view-change pattern) must not grow the heap
  // unboundedly. The seed engine left every cancelled entry in the
  // priority queue until its (possibly far-future) deadline drained it.
  TimerHeap heap;
  SimTime now = 0;
  size_t max_queued = 0;
  size_t max_slab = 0;
  heap.Push(now, [] {});
  for (int i = 0; i < 200000; ++i) {
    SimTime when = 0;
    ASSERT_TRUE(heap.NextDeadline(&when));
    now = when;
    heap.PopNext()();
    // Arm a far-future "view change" timer and immediately cancel it, as a
    // replica does on every committed batch; then the next tick.
    const EventId timer = heap.Push(now + Seconds(3600), [] {});
    EXPECT_TRUE(heap.Cancel(timer));
    heap.Push(now + Micros(10), [] {});
    max_queued = std::max(max_queued, heap.queued_entries());
    max_slab = std::max(max_slab, heap.slab_size());
  }
  // O(live timers + compaction slack), nowhere near the 200k cancellations.
  EXPECT_LE(max_queued, 200u);
  EXPECT_LE(max_slab, 200u);
  EXPECT_EQ(heap.pending(), 1u);
  SimTime when = 0;
  ASSERT_TRUE(heap.NextDeadline(&when));
  heap.PopNext();
  EXPECT_FALSE(heap.NextDeadline(&when));
  EXPECT_EQ(heap.pending(), 0u);
  EXPECT_EQ(heap.queued_entries(), 0u);
}

TEST(TimerHeapTest, EqualDeadlinesPopInPushOrder) {
  TimerHeap heap;
  std::vector<int> order;
  heap.Push(Millis(9), [&order] { order.push_back(-1); });
  for (int i = 0; i < 10; ++i) {
    heap.Push(Millis(5), [&order, i] { order.push_back(i); });
  }
  const EventId cancelled =
      heap.Push(Millis(5), [&order] { order.push_back(99); });
  EXPECT_TRUE(heap.Cancel(cancelled));
  heap.Push(Millis(5), [&order] { order.push_back(10); });
  SimTime when = 0;
  while (heap.NextDeadline(&when)) heap.PopNext()();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -1}));
}

TEST(TimerHeapTest, CancelAfterFireReturnsFalse) {
  TimerHeap heap;
  const EventId id = heap.Push(Millis(1), [] {});
  EventId inner = 0;
  bool cancelled_from_callback = true;
  inner = heap.Push(Millis(2),
                    [&] { cancelled_from_callback = heap.Cancel(inner); });
  SimTime when = 0;
  ASSERT_TRUE(heap.NextDeadline(&when));
  std::function<void()> fn = heap.PopNext();
  EXPECT_FALSE(heap.Cancel(id));  // popped: dead before it even runs
  fn();
  ASSERT_TRUE(heap.NextDeadline(&when));
  heap.PopNext()();
  EXPECT_FALSE(cancelled_from_callback);  // a timer cannot cancel itself
  EXPECT_FALSE(heap.Cancel(inner));
  // The freed slots are reused under new generations; old ids stay dead.
  const EventId reused = heap.Push(Millis(3), [] {});
  EXPECT_NE(reused, id);
  EXPECT_NE(reused, inner);
  EXPECT_FALSE(heap.Cancel(id));
  EXPECT_TRUE(heap.Cancel(reused));
}

TEST(TimerHeapTest, RandomizedOpsMatchReferenceOrder) {
  // Seeded push/cancel/pop sequences against a reference queue ordered by
  // (deadline, push order). Deadlines span a few ticks, so ties are common
  // and must pop first-in first-out. The op mix cycles through phases that
  // grow the heap, cancel most of it (queueing enough tombstones to force
  // compactions) and drain it.
  using Key = std::pair<SimTime, uint64_t>;  // (deadline, push order)
  size_t compactions = 0;
  size_t top_cancels = 0;
  size_t max_pending = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    TimerHeap heap;
    std::map<Key, EventId> reference;
    std::vector<std::pair<EventId, Key>> live;  // for random cancels
    std::vector<EventId> dead;
    uint64_t pushes = 0;
    uint64_t fired = 0;  // push order of the last callback that ran
    SimTime now = 0;
    auto forget = [&](EventId id) {
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i].first != id) continue;
        reference.erase(live[i].second);
        live[i] = live.back();
        live.pop_back();
        break;
      }
      dead.push_back(id);
    };
    for (int step = 0; step < 20000; ++step) {
      // Phases of 500 steps: grow (push 60%, cancel 30%), purge (push 10%,
      // cancel 80%), drain (push 20%, cancel 20%); pops take the rest.
      static constexpr uint64_t kPush[] = {60, 10, 20};
      static constexpr uint64_t kCancel[] = {30, 80, 20};
      const int phase = (step / 500) % 3;
      const uint64_t roll = rng.NextBounded(100);
      const size_t queued_before = heap.queued_entries();
      const bool probe_dead = rng.NextBounded(20) == 0;
      if (probe_dead && !dead.empty()) {
        // A fired or cancelled id stays dead, even after slot reuse.
        EXPECT_FALSE(heap.Cancel(dead[rng.NextBounded(dead.size())]));
      } else if (roll < kPush[phase]) {
        const bool far = rng.NextBounded(4) == 0;
        const SimTime when =
            now + (far ? Seconds(1) : 0) +
            static_cast<SimTime>(rng.NextBounded(4));
        const uint64_t order = ++pushes;
        const EventId id = heap.Push(when, [&fired, order] { fired = order; });
        ASSERT_NE(id, 0u);
        reference.emplace(Key{when, order}, id);
        live.emplace_back(id, Key{when, order});
      } else if (roll < kPush[phase] + kCancel[phase] && !live.empty()) {
        // Cancel the current top a third of the time, else any live timer.
        EventId id = live[rng.NextBounded(live.size())].first;
        if (rng.NextBounded(3) == 0) {
          id = reference.begin()->second;
          ++top_cancels;
        }
        ASSERT_TRUE(heap.Cancel(id));
        forget(id);
        if (heap.queued_entries() < queued_before) ++compactions;
      } else {
        SimTime when = 0;
        if (reference.empty()) {
          ASSERT_FALSE(heap.NextDeadline(&when));
          continue;
        }
        const auto top = reference.begin();
        ASSERT_TRUE(heap.NextDeadline(&when));
        ASSERT_EQ(when, top->first.first);
        const EventId id = top->second;
        const uint64_t order = top->first.second;
        std::function<void()> fn = heap.PopNext();
        EXPECT_FALSE(heap.Cancel(id));  // dead before its callback runs
        forget(id);
        fn();
        ASSERT_EQ(fired, order) << "seed " << seed << " step " << step;
        now = when;
      }
      ASSERT_EQ(heap.pending(), reference.size());
      max_pending = std::max(max_pending, heap.pending());
      // Fewer than 64 tombstones, or no more tombstones than live timers.
      ASSERT_LE(heap.queued_entries(),
                heap.pending() + std::max<size_t>(heap.pending(), 63));
    }
    // Drain: the rest pops in reference order, then the heap is empty.
    SimTime when = 0;
    for (const auto& [key, id] : reference) {
      ASSERT_TRUE(heap.NextDeadline(&when));
      ASSERT_EQ(when, key.first);
      heap.PopNext()();
      ASSERT_EQ(fired, key.second);
    }
    EXPECT_FALSE(heap.NextDeadline(&when));
    EXPECT_EQ(heap.queued_entries(), 0u);
  }
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(top_cancels, 0u);
  EXPECT_GT(max_pending, 64u);
}

TEST(TimerHeapTest, CompactsAtTheSixtyFourthTombstone) {
  TimerHeap heap;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(heap.Push(Seconds(1) + i, [] {}));
  }
  // Cancel from the back, so no tombstone reaches the top: until there are
  // 64 of them and they outnumber live timers, they stay queued.
  for (int i = 0; i < 63; ++i) ASSERT_TRUE(heap.Cancel(ids[99 - i]));
  EXPECT_EQ(heap.queued_entries(), 100u);
  ASSERT_TRUE(heap.Cancel(ids[99 - 63]));
  EXPECT_EQ(heap.queued_entries(), 36u);
  EXPECT_EQ(heap.pending(), 36u);
  std::vector<SimTime> popped;
  SimTime when = 0;
  while (heap.NextDeadline(&when)) {
    popped.push_back(when);
    heap.PopNext();
  }
  ASSERT_EQ(popped.size(), 36u);
  for (int i = 0; i < 36; ++i) EXPECT_EQ(popped[i], Seconds(1) + i);
}

TEST(SimulatorTest, PendingEventsTracksLiveEventsUnderChurn) {
  Simulator sim;
  std::vector<EventId> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(sim.Schedule(Millis(1 + i), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim.Cancel(live[i]));
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 50u);
}

TEST(NodeCpuTest, SerializesTasks) {
  Simulator sim;
  NodeCpu cpu(&sim);
  std::vector<SimTime> starts;
  // Two tasks submitted at t=0, each charging 10us: the second must start
  // at t=10us.
  cpu.Submit([&] {
    starts.push_back(sim.now());
    cpu.Charge(Micros(10));
  });
  cpu.Submit([&] {
    starts.push_back(sim.now());
    cpu.Charge(Micros(10));
  });
  sim.Run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], Micros(10));
  EXPECT_EQ(cpu.total_busy(), Micros(20));
}

TEST(NodeCpuTest, IdleCpuRunsImmediately) {
  Simulator sim;
  NodeCpu cpu(&sim);
  SimTime ran_at = -1;
  sim.Schedule(Millis(5), [&] {
    cpu.Submit([&] { ran_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(ran_at, Millis(5));
}

TEST(NodeCpuTest, AvailableAtTracksBacklog) {
  Simulator sim;
  NodeCpu cpu(&sim);
  cpu.Submit([&] { cpu.Charge(Micros(100)); });
  sim.Run();
  EXPECT_EQ(cpu.AvailableAt(), Micros(100));
}

}  // namespace
}  // namespace seemore
