// Adversarial protocol stress: many threads, few chunks, mixed operations,
// tiny caches — aimed at the transaction serialisation, drain, and voluntary
// eviction race paths rather than at end values (which are checked where the
// schedule makes them deterministic).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::small_cfg;

void add_u64(uint64_t& a, uint64_t v) { a += v; }

// All nodes hammer a single chunk with reads, writes (to per-node slots),
// applies (to a shared slot) and locks simultaneously.
TEST(DArrayStress, SingleChunkAllOpsAllNodes) {
  rt::Cluster cluster(small_cfg(3, /*chunk_elems=*/64, /*cachelines=*/4));
  auto arr = DArray<uint64_t>::create(cluster, 64);
  const auto add = arr.register_op(&add_u64, 0);
  constexpr int kIters = 25;  // every op forces a multi-party txn: keep small

  testing::run_on_nodes_mt(cluster, 2, [&](rt::NodeId n, uint32_t t) {
    Xoshiro256 rng(n * 16 + t);
    for (int k = 0; k < kIters; ++k) {
      switch (rng.next_below(4)) {
        case 0: (void)arr.get(rng.next_below(64)); break;
        case 1: arr.set(8 + n, k); break;  // per-node slot: no write races
        case 2: arr.apply(0, add, 1); break;
        case 3: {
          const uint64_t i = 20 + rng.next_below(4);
          arr.wlock(i);
          arr.set(i, arr.get(i) + 1);
          arr.unlock(i);
          break;
        }
      }
    }
  });

  // Deterministic invariants survive the chaos:
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    if (n != 0) return;
    uint64_t locked_sum = 0;
    for (uint64_t i = 20; i < 24; ++i) locked_sum += arr.get(i);
    uint64_t applied = arr.get(0);
    uint64_t total_lock_or_apply = 0;
    (void)total_lock_or_apply;
    // Each of the 8 threads did kIters ops split among 4 kinds randomly; we
    // can't know the split, but applies + locked increments together equal
    // the number of case-2 and case-3 draws. Replay the RNG to compute them.
    uint64_t expect_apply = 0, expect_lock = 0;
    for (uint32_t node = 0; node < 3; ++node) {
      for (uint32_t t = 0; t < 2; ++t) {
        Xoshiro256 rng(node * 16 + t);
        for (int k = 0; k < kIters; ++k) {
          switch (rng.next_below(4)) {
            case 0: rng.next_below(64); break;
            case 1: break;
            case 2: expect_apply++; break;
            case 3: rng.next_below(4); expect_lock++; break;
          }
        }
      }
    }
    EXPECT_EQ(applied, expect_apply);
    EXPECT_EQ(locked_sum, expect_lock);
  });
}

// Rapid Operated <-> Unshared flapping: alternate applies and reads from
// different nodes so every iteration forces a flush-all and a re-join.
TEST(DArrayStress, OperatedUnsharedFlapping) {
  rt::Cluster cluster(small_cfg(3, 32));
  auto arr = DArray<uint64_t>::create(cluster, 32);
  const auto add = arr.register_op(&add_u64, 0);
  constexpr int kRounds = 25;
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    for (int r = 0; r < kRounds; ++r) {
      arr.apply(5, add, 1);
      if (n == static_cast<rt::NodeId>(r % 3)) (void)arr.get(5);  // rotating reader
    }
  });
  testing::run_on_nodes(cluster, [&](rt::NodeId) { EXPECT_EQ(arr.get(5), 3u * kRounds); });
}

// Writer churn with a cache of exactly one line per node: every
// miss must first evict the only line (voluntary writeback races with the
// home's fetches).
TEST(DArrayStress, OneLineCache) {
  rt::Cluster cluster(small_cfg(2, /*chunk_elems=*/8, /*cachelines=*/1));
  auto arr = DArray<uint64_t>::create(cluster, 8 * 32);
  std::thread t([&] {
    bind_thread(cluster, 1);
    // Alternate between distant chunks of node 0's half.
    for (int r = 0; r < 40; ++r) {
      for (uint64_t c = 0; c < 8; ++c) {
        const uint64_t i = c * 8 + (static_cast<uint64_t>(r) % 8);
        arr.set(i, static_cast<uint64_t>(r) * 100 + c);
      }
    }
  });
  t.join();
  std::thread check([&] {
    bind_thread(cluster, 0);
    for (uint64_t c = 0; c < 8; ++c) {
      const uint64_t i = c * 8 + (39 % 8);
      EXPECT_EQ(arr.get(i), 39u * 100 + c);
    }
  });
  check.join();
}

// Lock convoys: all nodes queue on one element's writer lock repeatedly.
TEST(DArrayStress, LockConvoy) {
  rt::Cluster cluster(small_cfg(4));
  auto arr = DArray<uint64_t>::create(cluster, 256);
  constexpr int kPerThread = 10;
  testing::run_on_nodes_mt(cluster, 2, [&](rt::NodeId, uint32_t) {
    for (int k = 0; k < kPerThread; ++k) {
      arr.wlock(0);
      arr.set(0, arr.get(0) + 1);
      arr.unlock(0);
    }
  });
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    if (n == 2) {
      EXPECT_EQ(arr.get(0), 4u * 2 * kPerThread);
    }
  });
}

// Readers repeatedly upgrade to writers on the same chunk from two nodes.
TEST(DArrayStress, ReadWriteUpgradeChurn) {
  rt::Cluster cluster(small_cfg(2, 32));
  auto arr = DArray<uint64_t>::create(cluster, 64);
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    for (int r = 0; r < 40; ++r) {
      (void)arr.get(16 + n);   // join as sharer
      arr.set(16 + n, static_cast<uint64_t>(r));  // upgrade (invalidates peer)
    }
  });
  testing::run_on_nodes(cluster, [&](rt::NodeId) {
    EXPECT_EQ(arr.get(16), 39u);
    EXPECT_EQ(arr.get(17), 39u);
  });
}

}  // namespace
}  // namespace darray
