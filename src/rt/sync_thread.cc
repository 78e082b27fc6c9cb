#include "rt/sync_thread.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace seemore {
namespace rt {

SyncThread::SyncThread(EventLoop* loop) : loop_(loop) {
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    status_ = Status::Internal(std::string("eventfd: ") + std::strerror(errno));
    return;
  }
  status_ = loop_->WatchFd(wake_fd_, EventLoop::kReadable,
                           [this](uint32_t) { OnWake(); });
  if (!status_.ok()) return;
  thread_ = std::thread([this] { Main(); });
}

SyncThread::~SyncThread() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  if (wake_fd_ >= 0) {
    loop_->UnwatchFd(wake_fd_);
    close(wake_fd_);
  }
}

void SyncThread::Run(storage::SyncJob job, std::function<void(Status)> done) {
  SEEMORE_CHECK(status_.ok()) << "sync thread not running";
  waiting_.push_back(std::move(done));
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void SyncThread::Main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
    if (stopping_) return;
    storage::SyncJob job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    Status status = job();
    job = nullptr;  // releases the job's descriptor before the loop hears
    lock.lock();
    finished_.push_back(std::move(status));
    const uint64_t one = 1;
    // A full counter (never, at one write per sync) still leaves the loop
    // readable, so the wakeup is not lost.
    ssize_t written;
    do {
      written = write(wake_fd_, &one, sizeof(one));
    } while (written < 0 && errno == EINTR);
  }
}

void SyncThread::OnWake() {
  uint64_t count = 0;
  ssize_t got;
  do {
    got = read(wake_fd_, &count, sizeof(count));
  } while (got < 0 && errno == EINTR);
  std::deque<Status> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_);
  }
  for (Status& status : finished) {
    std::function<void(Status)> done = std::move(waiting_.front());
    waiting_.pop_front();
    done(std::move(status));
  }
}

}  // namespace rt
}  // namespace seemore
