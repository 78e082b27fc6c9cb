// Single-threaded epoll event loop + timerfd-backed TimerService.
//
// The real-time counterpart of the Simulator: one loop per process owns
// every socket and timer, and all protocol callbacks (message handlers,
// timer closures) run inline on the loop thread — the same single-threaded
// execution model replicas have under the simulator, so no protocol code
// needs locks in either backend.
//
// Time is the loop's MonotonicClock (CLOCK_MONOTONIC since construction).
// Timers live in a TimerHeap (util/timer_heap.h), the same slab + 4-ary
// heap the Simulator keeps its events in; a single timerfd is armed for the
// earliest deadline, so the epoll wait itself is the timer wheel — there is
// no polling and no drift accumulation. ScheduleAfter/CancelEvent implement
// the TimerService contract replicas already program against. Once warm,
// dispatching io, timers and posts allocates nothing of its own.

#ifndef SEEMORE_RT_EVENT_LOOP_H_
#define SEEMORE_RT_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "rt/clock.h"
#include "util/json.h"
#include "util/status.h"
#include "util/time.h"
#include "util/timer_heap.h"

namespace seemore {
namespace rt {

/// CPU time and context switches of this process (getrusage), as the
/// "rusage" object of a tcp report. Differences of two readings cover the
/// span between them.
struct ProcessUsage {
  uint64_t user_us = 0;
  uint64_t sys_us = 0;
  uint64_t voluntary_switches = 0;
  uint64_t involuntary_switches = 0;

  static ProcessUsage Now();
  ProcessUsage operator-(const ProcessUsage& earlier) const;
  Json ToJson() const;
};

class EventLoop final : public TimerService {
 public:
  /// Bitmask passed to io callbacks (mirrors EPOLLIN/EPOLLOUT without
  /// leaking <sys/epoll.h> into headers).
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;

  using IoCallback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Construction failure (epoll/timerfd creation), checked once by the
  /// composition root.
  const Status& init_status() const { return init_status_; }

  /// --- TimerService -------------------------------------------------------
  SimTime Now() const override { return clock_.Now(); }
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) override;
  /// Absolute-deadline form. Two timers with the same deadline fire in
  /// scheduling order — callers that precompute monotone release times
  /// (the transport's fault plane) rely on this to keep FIFO, where the
  /// relative form would smear ties by the clock skew between computing a
  /// delay and re-reading Now() here.
  EventId ScheduleAt(SimTime deadline, std::function<void()> fn);
  bool CancelEvent(EventId id) override;

  /// --- fd watching --------------------------------------------------------
  /// Watch `fd` for `events` (kReadable/kWritable). The callback runs on
  /// the loop; it may watch/unwatch any fd, including its own.
  Status WatchFd(int fd, uint32_t events, IoCallback callback);
  /// Change the interest set of a watched fd (typically toggling kWritable
  /// when a write queue drains/fills).
  Status ModifyFd(int fd, uint32_t events);
  /// Stop watching (the caller still owns and closes the fd). A callback
  /// may unwatch its own fd: the callback object stays alive until it
  /// returns.
  void UnwatchFd(int fd);

  /// Run `fn` after the current io dispatch batch, before the next
  /// epoll_wait. This is the flush-coalescing hook: every message enqueued
  /// while draining one readiness batch posts a single deferred flush, so
  /// the frames leave in one writev instead of one send() each — and
  /// unlike ScheduleAfter(0) it costs no timerfd_settime syscall. The queue
  /// is swapped once per iteration, so posts queued by a post run in the
  /// next iteration (after a zero-timeout epoll_wait), and a self-posting
  /// callback cannot starve io. `owner` tags the post for CancelPosts.
  void Post(std::function<void()> fn, const void* owner = nullptr);
  /// Drop every pending post tagged with `owner` (an object being
  /// destroyed), so a post can capture a bare `this`: no liveness token,
  /// and a closure small enough to be stored without allocating.
  void CancelPosts(const void* owner);

  /// --- running ------------------------------------------------------------
  /// Dispatch io + timers until Stop() (or `until` elapses, when >= 0).
  /// Checks `interrupt` (when set) after every wakeup — the SIGTERM hook:
  /// signal handlers may only set a flag, the loop notices it because the
  /// signal interrupts epoll_wait.
  void Run(SimTime until = -1);
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  void set_interrupt(std::function<bool()> interrupt) {
    interrupt_ = std::move(interrupt);
  }
  /// epoll_wait returns with at least one ready fd or timer, over this
  /// loop's life: what a process pays a wakeup for.
  uint64_t wakeups() const { return wakeups_; }

 private:
  struct Watch {
    IoCallback callback;
    uint32_t events = 0;
    uint64_t generation = 0;  // guards dispatch after unwatch+rewatch
  };

  void RearmTimerFd();
  void FireDueTimers();
  /// Deadline the timerfd is currently armed for (kNeverArmed when the fd
  /// is disarmed or has already fired). Lets arming be lazy: see
  /// RearmTimerFd.
  static constexpr SimTime kNeverArmed = INT64_MAX;
  uint32_t ToEpollEvents(uint32_t events) const;

  Status init_status_;
  MonotonicClock clock_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  bool stopped_ = false;
  std::function<bool()> interrupt_;
  uint64_t wakeups_ = 0;

  TimerHeap timers_;
  SimTime armed_deadline_ = kNeverArmed;

  std::unordered_map<int, Watch> watches_;
  uint64_t next_generation_ = 1;
  /// The fd whose callback is running (-1 outside io dispatch), and where
  /// UnwatchFd parks that callback until it returns.
  int dispatching_fd_ = -1;
  IoCallback retired_;

  struct Posted {
    std::function<void()> fn;
    const void* owner;
  };
  /// Posts queued for the end of this batch, and the batch being run; the
  /// two swap every iteration and both keep their capacity.
  std::vector<Posted> posted_;
  std::vector<Posted> running_;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_EVENT_LOOP_H_
