#include "rt/event_loop.h"

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace seemore {
namespace rt {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

uint64_t TimevalMicros(const timeval& tv) {
  return static_cast<uint64_t>(tv.tv_sec) * 1000000u +
         static_cast<uint64_t>(tv.tv_usec);
}

}  // namespace

ProcessUsage ProcessUsage::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {TimevalMicros(usage.ru_utime), TimevalMicros(usage.ru_stime),
          static_cast<uint64_t>(usage.ru_nvcsw),
          static_cast<uint64_t>(usage.ru_nivcsw)};
}

ProcessUsage ProcessUsage::operator-(const ProcessUsage& earlier) const {
  return {user_us - earlier.user_us, sys_us - earlier.sys_us,
          voluntary_switches - earlier.voluntary_switches,
          involuntary_switches - earlier.involuntary_switches};
}

Json ProcessUsage::ToJson() const {
  Json j = Json::Object();
  j.Set("user_us", user_us);
  j.Set("sys_us", sys_us);
  j.Set("voluntary_switches", voluntary_switches);
  j.Set("involuntary_switches", involuntary_switches);
  return j;
}

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    init_status_ = Errno("epoll_create1");
    return;
  }
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) {
    init_status_ = Errno("timerfd_create");
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timer_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) < 0) {
    init_status_ = Errno("epoll_ctl(timerfd)");
  }
}

EventLoop::~EventLoop() {
  if (timer_fd_ >= 0) close(timer_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

EventId EventLoop::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(Now() + delay, std::move(fn));
}

EventId EventLoop::ScheduleAt(SimTime deadline, std::function<void()> fn) {
  const SimTime now = Now();
  if (deadline < now) deadline = now;
  // The heap orders equal deadlines by push order, so same-deadline timers
  // fire in scheduling order.
  const EventId id = timers_.Push(deadline, std::move(fn));
  RearmTimerFd();
  return id;
}

bool EventLoop::CancelEvent(EventId id) { return timers_.Cancel(id); }

void EventLoop::RearmTimerFd() {
  // Lazy arming: when the fd is already armed for a deadline at or before
  // the current earliest, let it fire — a spurious early wake costs one
  // empty FireDueTimers pass, far cheaper than a timerfd_settime per
  // re-scheduled timer (view timers and client timeouts re-arm on every
  // request, so exact tracking would pay a syscall each time). An armed fd
  // with no timers left is likewise left to fire once and go quiet.
  SimTime earliest = 0;
  if (!timers_.NextDeadline(&earliest)) return;
  if (armed_deadline_ <= earliest) return;
  itimerspec spec{};
  SimTime wait = earliest - Now();
  if (wait < 1) wait = 1;  // 0 would disarm; fire "immediately" instead
  spec.it_value.tv_sec = wait / kNanosPerSecond;
  spec.it_value.tv_nsec = wait % kNanosPerSecond;
  timerfd_settime(timer_fd_, 0, &spec, nullptr);
  armed_deadline_ = earliest;
}

void EventLoop::FireDueTimers() {
  // One read clears the timerfd's expiration counter: the fd is one-shot
  // and non-blocking, so a second read could only return EAGAIN. The count
  // itself is irrelevant; the timer store below decides what is due.
  uint64_t expirations = 0;
  (void)!read(timer_fd_, &expirations, sizeof(expirations));
  armed_deadline_ = kNeverArmed;  // one-shot: the fd has fired and is idle
  // Fire everything due at entry. Callbacks may schedule new timers; a new
  // timer due "now" waits for the next epoll wakeup (which the rearm below
  // makes imminent), so a self-rescheduling zero-delay timer cannot starve
  // io events.
  const SimTime now = Now();
  SimTime when = 0;
  while (timers_.NextDeadline(&when) && when <= now) {
    std::function<void()> fn = timers_.PopNext();
    fn();
  }
  RearmTimerFd();
}

uint32_t EventLoop::ToEpollEvents(uint32_t events) const {
  uint32_t out = 0;
  if (events & kReadable) out |= EPOLLIN;
  if (events & kWritable) out |= EPOLLOUT;
  return out;
}

Status EventLoop::WatchFd(int fd, uint32_t events, IoCallback callback) {
  const uint64_t generation = next_generation_++;
  epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.u64 = (generation << 32) | static_cast<uint32_t>(fd);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Errno("epoll_ctl(add)");
  }
  Watch& watch = watches_[fd];
  watch.callback = std::move(callback);
  watch.events = events;
  watch.generation = generation;
  return Status::Ok();
}

Status EventLoop::ModifyFd(int fd, uint32_t events) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) {
    return Status::NotFound("ModifyFd on unwatched fd");
  }
  if (it->second.events == events) return Status::Ok();  // interest unchanged
  epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.u64 = (it->second.generation << 32) | static_cast<uint32_t>(fd);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Errno("epoll_ctl(mod)");
  }
  it->second.events = events;
  return Status::Ok();
}

void EventLoop::UnwatchFd(int fd) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // A callback unwatching its own fd is still running: keep it alive until
  // it returns (Run clears retired_).
  if (fd == dispatching_fd_) retired_ = std::move(it->second.callback);
  watches_.erase(it);
}

void EventLoop::Post(std::function<void()> fn, const void* owner) {
  posted_.push_back(Posted{std::move(fn), owner});
}

void EventLoop::CancelPosts(const void* owner) {
  // running_ too: a post in the batch being run may destroy an owner whose
  // own posts come later in the same batch.
  for (std::vector<Posted>* queue : {&posted_, &running_}) {
    for (Posted& post : *queue) {
      if (post.owner == owner) post.fn = nullptr;
    }
  }
}

void EventLoop::Run(SimTime until) {
  stopped_ = false;
  const SimTime deadline = until >= 0 ? Now() + until : -1;
  std::vector<epoll_event> events(64);
  while (!stopped_) {
    if (interrupt_ && interrupt_()) break;
    int timeout_ms = 500;  // backstop so a missed signal wakeup can't hang us
    if (!posted_.empty()) timeout_ms = 0;  // pending posts must not sleep
    if (deadline >= 0) {
      const SimTime left = deadline - Now();
      if (left <= 0) break;
      const int left_ms = static_cast<int>(left / kNanosPerMilli) + 1;
      if (left_ms < timeout_ms) timeout_ms = left_ms;
    }
    const int n =
        epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: loop back to the interrupt check
      break;
    }
    if (n > 0) ++wakeups_;
    for (int i = 0; i < n; ++i) {
      const int fd = static_cast<int>(events[i].data.u64 & 0xffffffffu);
      const uint64_t generation = events[i].data.u64 >> 32;
      if (fd == timer_fd_) {
        FireDueTimers();
        continue;
      }
      // A callback earlier in this batch may have unwatched (or even
      // unwatched + rewatched) this fd; the generation check drops stale
      // readiness instead of invoking a dead (or wrong) callback.
      auto it = watches_.find(fd);
      if (it == watches_.end() ||
          (it->second.generation & 0xffffffffu) != generation) {
        continue;
      }
      uint32_t mask = 0;
      if (events[i].events & EPOLLIN) mask |= kReadable;
      if (events[i].events & EPOLLOUT) mask |= kWritable;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) mask |= kError;
      // Called in place: watches_ is node-based, so other fds' watches
      // coming and going leave this one where it is, and UnwatchFd parks
      // the callback in retired_ if it unwatches its own fd.
      dispatching_fd_ = fd;
      it->second.callback(mask);
      dispatching_fd_ = -1;
      retired_ = nullptr;
    }
    // End-of-batch posts: everything deferred while dispatching this batch
    // (e.g. per-connection flush requests) runs now, before the loop can
    // sleep again. Swap once, so an unbounded self-posting chain still
    // yields to io every iteration because the swapped vector is finite.
    if (!posted_.empty()) {
      running_.swap(posted_);
      // By index, moving each out before it runs: a post may cancel
      // entries of this batch, its own included.
      for (size_t i = 0; i < running_.size(); ++i) {
        std::function<void()> fn = std::move(running_[i].fn);
        if (fn) fn();
      }
      running_.clear();
      // Posts queued by these run next iteration (epoll timeout 0).
    }
    if (static_cast<size_t>(n) == events.size()) events.resize(events.size() * 2);
  }
}

}  // namespace rt
}  // namespace seemore
