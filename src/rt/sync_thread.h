// A node's background WAL syncs: the storage::SyncRunner of the tcp
// runtime.
//
// One helper thread per node runs each sync job (an fdatasync on a
// descriptor PosixMedium::PrepareSync dup'd, so a seal or GC on the loop
// never closes it underneath) and wakes the EventLoop through an eventfd.
// The loop keeps reading frames and firing timers while the disk works, and
// each completion runs on the loop, like every other callback, in the order
// the jobs were given.

#ifndef SEEMORE_RT_SYNC_THREAD_H_
#define SEEMORE_RT_SYNC_THREAD_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "rt/event_loop.h"
#include "storage/medium.h"

namespace seemore {
namespace rt {

class SyncThread final : public storage::SyncRunner {
 public:
  /// Check status() before use. `loop` outlives this object.
  explicit SyncThread(EventLoop* loop);
  /// Joins the thread: a job already running finishes, and its completion
  /// and those of queued jobs are dropped.
  ~SyncThread() override;

  SyncThread(const SyncThread&) = delete;
  SyncThread& operator=(const SyncThread&) = delete;

  const Status& status() const { return status_; }

  void Run(storage::SyncJob job, std::function<void(Status)> done) override;

 private:
  void Main();
  /// On the loop: the thread finished jobs; run their completions.
  void OnWake();

  EventLoop* loop_;
  Status status_;
  int wake_fd_ = -1;
  /// Completions of the jobs handed over, oldest first (loop thread only).
  std::deque<std::function<void(Status)>> waiting_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;               // guarded by mu_
  std::deque<storage::SyncJob> jobs_;   // guarded by mu_
  std::deque<Status> finished_;         // guarded by mu_
  std::thread thread_;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_SYNC_THREAD_H_
