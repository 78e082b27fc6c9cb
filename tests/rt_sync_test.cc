// The tcp runtime's background WAL sync (rt/sync_thread.h): a sync runs on
// the helper thread while the event loop keeps reading frames and firing
// timers, its completion lands back on the loop, and a segment seal (and
// the GC of the sealed segment) on the loop while a sync is in flight
// leaves the sync's own descriptor alone. Runs under TSan in CI.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "consensus/batch.h"
#include "rt/event_loop.h"
#include "rt/posix_medium.h"
#include "rt/sync_thread.h"
#include "storage/file_store.h"
#include "util/time.h"

namespace seemore {
namespace rt {
namespace {

/// Drive the loop in small slices until `done` or the (real-time) budget
/// runs out. Never hangs a test run.
bool RunUntil(EventLoop* loop, const std::function<bool()>& done,
              SimTime budget = Seconds(10)) {
  const SimTime give_up = loop->Now() + budget;
  while (!done() && loop->Now() < give_up) loop->Run(Millis(5));
  return done();
}

/// A fresh directory under the test's temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  return dir;
}

TEST(SyncThreadTest, CompletionLandsOnTheLoopWhileFramesFlow) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());
  SyncThread sync(&loop);
  ASSERT_TRUE(sync.status().ok());

  // A peer writes one byte every millisecond; the loop reads each one.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  int frames = 0;
  ASSERT_TRUE(loop.WatchFd(fds[0], EventLoop::kReadable, [&](uint32_t) {
                    char byte;
                    while (read(fds[0], &byte, 1) == 1) ++frames;
                  }).ok());
  std::function<void()> tick = [&] {
    const char byte = 'f';
    ASSERT_EQ(write(fds[1], &byte, 1), 1);
    loop.ScheduleAfter(Millis(1), tick);
  };
  tick();

  // The job holds the helper thread until the loop has read ten frames
  // after it began.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  const std::thread::id loop_thread = std::this_thread::get_id();
  std::thread::id job_thread;
  std::thread::id done_thread;
  bool done = false;
  sync.Run(
      [&job_thread, opened] {
        job_thread = std::this_thread::get_id();
        opened.wait();
        return Status::Ok();
      },
      [&](Status status) {
        EXPECT_TRUE(status.ok());
        done_thread = std::this_thread::get_id();
        done = true;
      });
  const int frames_at_start = frames;
  ASSERT_TRUE(RunUntil(&loop, [&] { return frames >= frames_at_start + 10; }));
  EXPECT_FALSE(done);  // the loop ran on while the job was held
  gate.set_value();
  ASSERT_TRUE(RunUntil(&loop, [&] { return done; }));
  EXPECT_EQ(done_thread, loop_thread);
  EXPECT_NE(job_thread, loop_thread);
  // Completions come back in the order the jobs were given.
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sync.Run([] { return Status::Ok(); },
             [&order, i](Status) { order.push_back(i); });
  }
  ASSERT_TRUE(RunUntil(&loop, [&] { return order.size() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

  loop.UnwatchFd(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

/// Holds every job on the helper thread until `gate` opens.
class GatedRunner final : public storage::SyncRunner {
 public:
  GatedRunner(EventLoop* loop, std::shared_future<void> gate)
      : inner_(loop), gate_(std::move(gate)) {}
  const Status& status() const { return inner_.status(); }
  void Run(storage::SyncJob job, std::function<void(Status)> done) override {
    inner_.Run(
        [job = std::move(job), gate = gate_] {
          gate.wait();
          return job();
        },
        std::move(done));
  }

 private:
  SyncThread inner_;
  std::shared_future<void> gate_;
};

TEST(SyncThreadTest, SealAndGcDuringAnInFlightSync) {
  EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());
  const std::string dir = FreshDir("rt_sync_test_seal");
  PosixMedium medium(dir);
  ASSERT_TRUE(medium.status().ok());
  DurabilityOptions options;
  options.enabled = true;
  options.segment_bytes = 1024;
  storage::FileDurableStore store(&medium, options, CostModel{});
  ASSERT_TRUE(store.OpenFresh().ok());
  std::promise<void> gate;
  auto runner =
      std::make_unique<GatedRunner>(&loop, gate.get_future().share());
  ASSERT_TRUE(runner->status().ok());
  store.SetSyncRunner(std::move(runner));

  Batch batch;
  batch.requests.resize(1);
  batch.requests[0].op = Bytes(200, 0x5a);
  store.AppendCommit(1, batch);
  ASSERT_TRUE(store.wal().sync_in_flight());
  // Fill past several segment rolls while that sync is held: every seal
  // syncs on the loop, so the log is durable through each seal.
  uint64_t seq = 1;
  while (medium.List("wal-").size() < 4) store.AppendCommit(++seq, batch);
  EXPECT_TRUE(store.wal().sync_in_flight());
  EXPECT_GT(store.durable_lsn(), 1u);
  // A stable checkpoint above the first segment's records removes it, the
  // file the in-flight sync holds a descriptor of.
  const Bytes snapshot(64, 0x11);
  store.SaveSnapshot(seq, Digest::Of(snapshot), snapshot);
  CheckpointCert cert;
  CheckpointMsg msg;
  msg.seq = seq;
  msg.state_digest = Digest::Of(snapshot);
  cert.Add(msg);
  store.NoteStable(seq, cert);
  EXPECT_FALSE(medium.Exists(storage::WalSegmentName(0)));

  store.AppendCommit(++seq, batch);
  gate.set_value();
  ASSERT_TRUE(RunUntil(&loop, [&] {
    return !store.wal().sync_in_flight() &&
           store.durable_lsn() == store.wal().appended_lsn();
  }));
  EXPECT_EQ(store.ReplyLsn(), store.durable_lsn());
  Result<RecoveredImage> image = storage::FileDurableStore::Recover(medium);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->MaxCommitSeq(), seq);
  std::system(("rm -rf '" + dir + "'").c_str());
}

}  // namespace
}  // namespace rt
}  // namespace seemore
