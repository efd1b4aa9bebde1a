// Runtime-layer counters: assert the *behavioural* claims of the paper's
// design through the telemetry rather than timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray::rt {
namespace {

using darray::testing::small_cfg;

void add_u64(uint64_t& a, uint64_t v) { a += v; }

TEST(RuntimeStats, AccumulateAndAdd) {
  RuntimeStats a, b;
  a.fills = 3;
  a.evict_clean = 1;
  b.fills = 4;
  b.evict_writeback = 2;
  a += b;
  EXPECT_EQ(a.fills, 7u);
  EXPECT_EQ(a.total_evictions(), 3u);
}

TEST(RuntimeStats, FastPathHitsProduceNoMisses) {
  rt::Cluster cluster(small_cfg(2));
  auto arr = darray::DArray<uint64_t>::create(cluster, 256);
  std::thread t([&] {
    darray::bind_thread(cluster, 0);
    for (int rep = 0; rep < 10; ++rep)
      for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) (void)arr.get(i);
  });
  t.join();
  EXPECT_EQ(cluster.runtime_stats().total_misses(), 0u)
      << "home accesses with full permission never enter the slow path";
}

TEST(RuntimeStats, MissesAreChunkGranular) {
  rt::Cluster cluster(small_cfg(2, /*chunk_elems=*/64, /*cachelines=*/256));
  auto arr = darray::DArray<uint64_t>::create(cluster, 64 * 16);
  std::thread t([&] {
    darray::bind_thread(cluster, 1);
    for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) (void)arr.get(i);
  });
  t.join();
  const RuntimeStats s = cluster.runtime_stats();
  const uint64_t chunks = (arr.local_end(0) - arr.local_begin(0)) / 64;
  EXPECT_GE(s.local_read_misses, 1u);  // prefetch absorbs most sequential misses
  EXPECT_LE(s.local_read_misses, 2 * chunks);
  EXPECT_GE(s.fills + 0, chunks);  // every chunk filled exactly once (+prefetch)
}

TEST(RuntimeStats, PrefetchIssuedOnSequentialMisses) {
  rt::ClusterConfig cfg = small_cfg(2, 64, 256);
  cfg.prefetch_chunks = 2;
  rt::Cluster cluster(cfg);
  auto arr = darray::DArray<uint64_t>::create(cluster, 64 * 16);
  std::thread t([&] {
    darray::bind_thread(cluster, 1);
    for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) {
      // Give read-ahead fills time to land before the sweep reaches them.
      if (i % 64 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      (void)arr.get(i);
    }
  });
  t.join();
  const RuntimeStats s = cluster.runtime_stats();
  const uint64_t chunks = (arr.local_end(0) - arr.local_begin(0)) / 64;
  EXPECT_GT(s.prefetches_issued, 0u);
  EXPECT_LT(s.local_read_misses, chunks) << "read-ahead turned demand misses into hits";
}

// Random remote reads never continue a forward miss stream, so the engine
// reads nothing ahead for them: every fill is one a read asked for.
TEST(RuntimeStats, RandomRemoteReadsIssueNoPrefetch) {
  rt::ClusterConfig cfg = small_cfg(2, 64, 256);
  cfg.prefetch_chunks = 2;
  rt::Cluster cluster(cfg);
  auto arr = darray::DArray<uint64_t>::create(cluster, 64 * 512);
  const uint64_t remote_chunks = (arr.local_end(0) - arr.local_begin(0)) / 64;
  // Distinct chunks homed on node 0, in a seeded random order with no chunk
  // 1..1+prefetch_chunks ahead of the one read before it.
  std::vector<uint64_t> order;
  std::vector<bool> used(remote_chunks, false);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  while (order.size() < 200) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t c = x % remote_chunks;
    if (used[c]) continue;
    if (!order.empty() && c > order.back() && c - order.back() <= 1 + cfg.prefetch_chunks)
      continue;
    used[c] = true;
    order.push_back(c);
  }
  std::thread t([&] {
    darray::bind_thread(cluster, 1);
    for (const uint64_t c : order) (void)arr.get(arr.local_begin(0) + c * 64 + 5);
  });
  t.join();
  const RuntimeStats s = cluster.runtime_stats();
  EXPECT_EQ(s.prefetches_issued, 0u);
  EXPECT_EQ(s.local_read_misses, order.size());
}

TEST(RuntimeStats, PrefetchDisabledIssuesNone) {
  rt::ClusterConfig cfg = small_cfg(2, 64, 256);
  cfg.prefetch_chunks = 0;
  rt::Cluster cluster(cfg);
  auto arr = darray::DArray<uint64_t>::create(cluster, 64 * 8);
  std::thread t([&] {
    darray::bind_thread(cluster, 1);
    for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) (void)arr.get(i);
  });
  t.join();
  EXPECT_EQ(cluster.runtime_stats().prefetches_issued, 0u);
}

TEST(RuntimeStats, EvictionKindsMatchUsage) {
  rt::Cluster cluster(small_cfg(2, /*chunk_elems=*/16, /*cachelines=*/8));
  auto arr = darray::DArray<uint64_t>::create(cluster, 16 * 64);
  const auto add = arr.register_op(&add_u64, 0);
  std::thread t([&] {
    darray::bind_thread(cluster, 1);
    // Read sweep: clean evictions.
    for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) (void)arr.get(i);
    // Write sweep: writeback evictions.
    for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) arr.set(i, i);
    // Operate sweep: op-flush evictions.
    for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); ++i) arr.apply(i, add, 1);
  });
  t.join();
  const RuntimeStats s = cluster.runtime_stats();
  EXPECT_GT(s.evict_clean, 0u);
  EXPECT_GT(s.evict_writeback, 0u);
  EXPECT_GT(s.evict_opflush, 0u);
}

TEST(RuntimeStats, LockWaitsUnderContention) {
  rt::Cluster cluster(small_cfg(2));
  auto arr = darray::DArray<uint64_t>::create(cluster, 64);
  // One thread holds the lock until another has queued on it, so the
  // critical sections overlap at least once whatever the scheduler does.
  std::atomic<bool> held{false};
  darray::testing::run_on_nodes_mt(cluster, 2, [&](rt::NodeId n, uint32_t t) {
    if (n == 0 && t == 0) {
      arr.wlock(0);
      held.store(true);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (cluster.runtime_stats().lock_waits == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      arr.unlock(0);
    } else {
      while (!held.load()) std::this_thread::yield();
    }
    for (int k = 0; k < 25; ++k) {
      arr.wlock(0);
      arr.set(0, arr.get(0) + 1);
      arr.unlock(0);
    }
  });
  const RuntimeStats s = cluster.runtime_stats();
  EXPECT_GT(s.lock_acquires, 0u);
  EXPECT_GT(s.lock_waits, 0u) << "four threads on one lock must queue sometimes";
}

// Every submission to the engine either runs the engine pass on the
// submitting thread or leaves it to another thread's pass; the two counters
// partition the submissions. Which thread wins the engine lock depends on
// scheduling, so only the sum is asserted. Node 0 locks an element it homes;
// two node-1 threads lock the same element remotely. Per iteration that is:
// node 0 acquire + release (2); per node-1 thread, acquire + release at node 1
// (2), kLockAcq + kLockRel delivered at node 0 (2), kLockGrant at node 1 (1).
TEST(RuntimeStats, EverySubmissionRunsInlineOrHandsOff) {
  rt::Cluster cluster(small_cfg(2));
  auto arr = darray::DArray<uint64_t>::create(cluster, 128);
  constexpr uint64_t kIters = 40;
  const uint64_t idx = arr.local_begin(0);
  darray::testing::run_on_nodes_mt(cluster, 2, [&](rt::NodeId n, uint32_t t) {
    if (n == 0 && t == 1) return;
    for (uint64_t k = 0; k < kIters; ++k) {
      arr.wlock(idx);
      arr.unlock(idx);
    }
  });
  const uint64_t expected = kIters * (2 + 2 * (2 + 2 + 1));
  const auto passes = [&cluster] {
    const obs::StatsSnapshot s = cluster.stats();
    return s.value_or("runtime.inline_passes") + s.value_or("runtime.handoffs");
  };
  // The last kLockRel reaches node 0 after the remote unlock() returns.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (passes() < expected && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(passes(), expected);
  const RuntimeStats s = cluster.runtime_stats();
  EXPECT_EQ(s.inline_passes + s.handoffs, expected);
}

}  // namespace
}  // namespace darray::rt
