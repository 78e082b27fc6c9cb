// Allocation budget: how many heap allocations the request path pays.
//
// Every global operator new in this binary is counted and served by
// malloc (and every delete by free), so AddressSanitizer still tracks each
// block. The budgets are counts the program makes, so they repeat exactly:
// a seeded simulated run makes the same allocations on every run.

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "rt/event_loop.h"
#include "tests/test_util.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace seemore {
namespace {

/// Allocations per request on the Lion sim run below: 87.73 measured,
/// plus 10%.
constexpr double kLionSimBudget = 87.73 * 1.10;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

uint64_t TotalCompleted(Cluster& cluster) {
  uint64_t total = 0;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    total += cluster.client(i)->completed();
  }
  return total;
}

/// Steps the simulator until the clients have completed `target` requests.
void RunUntilCompleted(Cluster& cluster, uint64_t target) {
  while (TotalCompleted(cluster) < target) {
    ASSERT_TRUE(cluster.sim().Step()) << "cluster went idle";
  }
}

TEST(AllocBudgetTest, LionSimRequestPathStaysWithinBudget) {
  // Lion (c = 1, m = 1) with four closed-loop KV clients. Every client,
  // replica and message of the run shares this process, so the count
  // covers the whole request path: client sign and send, the primary's
  // batching and ACCEPT tally, the backups' PREPARE/COMMIT handling,
  // execution, and the replies.
  Cluster cluster(testing::SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  const OpFactory ops = KvWorkload(/*seed=*/7, /*key_space=*/64,
                                   /*put_fraction=*/0.5);
  for (int i = 0; i < 4; ++i) cluster.AddClient()->Start(ops);

  // Warm: slabs, rings, arenas and vectors reach their working size.
  RunUntilCompleted(cluster, 2000);
  const uint64_t completed_before = TotalCompleted(cluster);
  const uint64_t allocations_before = Allocations();
  RunUntilCompleted(cluster, completed_before + 1000);
  const uint64_t requests = TotalCompleted(cluster) - completed_before;
  const uint64_t allocations = Allocations() - allocations_before;
  const double per_request =
      static_cast<double>(allocations) / static_cast<double>(requests);
  std::printf("lion sim: %.2f allocations per request (%llu over %llu)\n",
              per_request, static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(requests));
  // The measured count plus 10%: a change that adds heap traffic to the
  // request path must show up here.
  EXPECT_LE(per_request, kLionSimBudget);
}

TEST(AllocBudgetTest, WarmEventLoopDispatchAllocatesNothing) {
  // Timer schedule/cancel churn, posts and fd readiness on a warmed loop.
  // The watch callback's capture is too big for std::function's inline
  // buffer, so copying it per dispatch would allocate.
  rt::EventLoop loop;
  ASSERT_TRUE(loop.init_status().ok());
  int fds[2];
  ASSERT_EQ(pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  auto drained = std::make_shared<uint64_t>(0);
  ASSERT_TRUE(loop.WatchFd(fds[0], rt::EventLoop::kReadable,
                           [fd = fds[0], drained](uint32_t) {
                             char buf[64];
                             while (read(fd, buf, sizeof(buf)) > 0) {
                               ++*drained;
                             }
                           })
                  .ok());

  constexpr int kWarm = 200;
  constexpr int kMeasured = 2000;
  int ticks = 0;
  int posts = 0;
  uint64_t at_warm = 0;
  uint64_t at_end = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks == kWarm) at_warm = Allocations();
    if (ticks == kWarm + kMeasured) {
      at_end = Allocations();
      loop.Stop();
      return;
    }
    // Small captures: stored inside the std::function, no heap.
    const EventId far = loop.ScheduleAfter(Seconds(60), [&ticks] { ++ticks; });
    EXPECT_TRUE(loop.CancelEvent(far));
    loop.Post([&posts] { ++posts; });
    ASSERT_EQ(write(fds[1], "x", 1), 1);
    loop.ScheduleAfter(0, [&tick] { tick(); });
  };
  loop.ScheduleAfter(0, [&tick] { tick(); });
  loop.Run(Seconds(30));
  loop.UnwatchFd(fds[0]);
  close(fds[0]);
  close(fds[1]);

  ASSERT_EQ(ticks, kWarm + kMeasured);
  EXPECT_GE(posts, kWarm + kMeasured - 2);
  EXPECT_GT(*drained, 0u);
  std::printf("event loop: %llu allocations over %d warm dispatch rounds\n",
              static_cast<unsigned long long>(at_end - at_warm), kMeasured);
  EXPECT_EQ(at_end - at_warm, 0u);
}

}  // namespace
}  // namespace seemore
