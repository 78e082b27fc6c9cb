#include "sim/simulator.h"

#include "util/logging.h"

namespace seemore {

Simulator::Simulator(uint64_t seed) : seed_(seed), rng_(seed) {}

EventId Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  SEEMORE_CHECK(when >= now_) << "event scheduled in the past";
  return events_.Push(when, std::move(fn));
}

bool Simulator::Cancel(EventId id) { return events_.Cancel(id); }

void Simulator::FireNext(SimTime when) {
  std::function<void()> fn = events_.PopNext();
  now_ = when;
  ++executed_events_;
  fn();
}

void Simulator::Run() {
  SimTime when = 0;
  while (events_.NextDeadline(&when)) FireNext(when);
}

void Simulator::RunUntil(SimTime deadline) {
  SimTime when = 0;
  while (events_.NextDeadline(&when) && when <= deadline) FireNext(when);
  if (now_ < deadline) now_ = deadline;
}

bool Simulator::Step() {
  SimTime when = 0;
  if (!events_.NextDeadline(&when)) return false;
  FireNext(when);
  return true;
}

}  // namespace seemore
