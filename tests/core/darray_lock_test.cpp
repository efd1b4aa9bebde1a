// Distributed reader/writer locks (Fig. 3 concurrency control).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::run_on_nodes;
using testing::small_cfg;

TEST(DArrayLock, LocalLockRoundTrip) {
  rt::Cluster cluster(small_cfg(1));
  auto a = DArray<uint64_t>::create(cluster, 64);
  bind_thread(cluster, 0);
  a.wlock(3);
  a.unlock(3);
  a.rlock(3);
  a.rlock(3);  // readers share, even from the same thread
  a.unlock(3);
  a.unlock(3);
}

TEST(DArrayLock, RemoteLockRoundTrip) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 128);
  std::thread t([&] {
    bind_thread(cluster, 1);
    a.wlock(0);  // element homed at node 0
    a.unlock(0);
  });
  t.join();
}

// The classic mutual-exclusion test: unprotected read-modify-write would lose
// updates; under wlock it must not.
TEST(DArrayLock, WlockProtectsReadModifyWrite) {
  rt::Cluster cluster(small_cfg(3));
  auto a = DArray<uint64_t>::create(cluster, 192);
  constexpr int kPerNode = 60;
  const uint64_t idx = 2;
  run_on_nodes(cluster, [&](rt::NodeId) {
    for (int i = 0; i < kPerNode; ++i) {
      a.wlock(idx);
      a.set(idx, a.get(idx) + 1);
      a.unlock(idx);
    }
  });
  run_on_nodes(cluster, [&](rt::NodeId) { EXPECT_EQ(a.get(idx), 3u * kPerNode); });
}

TEST(DArrayLock, WriterBlocksUntilReaderReleases) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 64);
  std::atomic<bool> writer_acquired{false};
  std::atomic<bool> reader_released{false};

  std::thread reader([&] {
    bind_thread(cluster, 0);
    a.rlock(1);
    // Give the writer a chance to (incorrectly) slip through.
    for (int i = 0; i < 50 && !writer_acquired.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_FALSE(writer_acquired.load()) << "writer acquired while reader held";
    reader_released.store(true);
    a.unlock(1);
  });
  std::thread writer([&] {
    bind_thread(cluster, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    a.wlock(1);
    writer_acquired.store(true);
    EXPECT_TRUE(reader_released.load());
    a.unlock(1);
  });
  reader.join();
  writer.join();
  EXPECT_TRUE(writer_acquired.load());
}

TEST(DArrayLock, ManyElementsManyNodes) {
  rt::Cluster cluster(small_cfg(3));
  auto a = DArray<uint64_t>::create(cluster, 192);
  run_on_nodes(cluster, [&](rt::NodeId n) {
    for (uint64_t i = 0; i < 30; ++i) {
      const uint64_t idx = (i * 7 + n) % a.size();
      a.wlock(idx);
      a.set(idx, a.get(idx) + 1);
      a.unlock(idx);
    }
  });
  uint64_t total = 0;
  std::thread sum([&] {
    bind_thread(cluster, 0);
    for (uint64_t i = 0; i < a.size(); ++i) total += a.get(i);
  });
  sum.join();
  EXPECT_EQ(total, 3u * 30);
}

TEST(DArrayLock, ReadersDontExcludeEachOtherAcrossNodes) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 64);
  std::atomic<int> holding{0};
  std::atomic<int> max_seen{0};
  run_on_nodes(cluster, [&](rt::NodeId) {
    a.rlock(0);
    const int now = holding.fetch_add(1) + 1;
    int prev = max_seen.load();
    while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    holding.fetch_sub(1);
    a.unlock(0);
  });
  EXPECT_EQ(max_seen.load(), 2) << "both readers should have held concurrently";
}

// Lost-wakeup regression: micro_fastpath's BM_DArrayWlockUnlock op sequence
// (a synchronous runtime round trip per call on a one-node cluster with the
// telemetry sampler running) on unpinned threads. A release-store-then-notify
// signal could skip the futex wake and park the app thread for good; a
// watchdog turns such a hang into a failure instead of a stuck test binary.
TEST(WakeupStress, WlockUnlockLoopNeverParksForGood) {
  rt::ClusterConfig cfg;
  cfg.num_nodes = 1;
  cfg.telemetry_enabled = true;
  cfg.telemetry_sample_ns = 1'000'000;
  rt::Cluster cluster(cfg);
  constexpr uint64_t kMask = (1 << 16) - 1;
  auto a = DArray<uint64_t>::create(cluster, kMask + 1);
  constexpr uint64_t kIters = 300'000;
  std::atomic<uint64_t> done{0};
  std::thread t([&] {
    bind_thread(cluster, 0);
    for (uint64_t i = 0; i < kIters; ++i) {
      a.wlock(i & kMask);
      a.unlock(i & kMask);
      done.store(i + 1, std::memory_order_relaxed);
    }
  });
  uint64_t last = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (done.load(std::memory_order_relaxed) < kIters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t now_done = done.load(std::memory_order_relaxed);
    if (now_done != last) {
      last = now_done;
      last_progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_progress > std::chrono::seconds(30)) {
      std::fprintf(stderr, "WlockUnlock loop made no progress for 30 s at iteration %llu\n",
                   static_cast<unsigned long long>(now_done));
      std::fflush(stderr);
      std::_Exit(1);  // the parked thread cannot be joined
    }
  }
  t.join();
  EXPECT_EQ(done.load(), kIters);
}

}  // namespace
}  // namespace darray
