// Multiple engine shards per node: chunks are sharded across engines
// (chunk % R), each with its own cache region and protocol state.
#include <gtest/gtest.h>

#include <thread>

#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

rt::ClusterConfig multi_rt_cfg(uint32_t nodes, uint32_t rts) {
  rt::ClusterConfig cfg = testing::small_cfg(nodes, /*chunk_elems=*/16, /*cachelines=*/32);
  cfg.runtime_threads_per_node = rts;
  return cfg;
}

void add_u64(uint64_t& a, uint64_t v) { a += v; }

TEST(DArrayMultiRt, SweepAcrossChunksAndNodes) {
  rt::Cluster cluster(multi_rt_cfg(2, 2));
  auto a = DArray<uint64_t>::create(cluster, 16 * 16);
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    for (uint64_t i = a.local_begin(n); i < a.local_end(n); ++i) a.set(i, i * 5);
  });
  testing::run_on_nodes(cluster, [&](rt::NodeId) {
    for (uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.get(i), i * 5);
  });
}

TEST(DArrayMultiRt, OperateAcrossEngineShards) {
  rt::Cluster cluster(multi_rt_cfg(3, 2));
  auto a = DArray<uint64_t>::create(cluster, 16 * 12);
  const auto add = a.register_op(&add_u64, 0);
  testing::run_on_nodes(cluster, [&](rt::NodeId) {
    // Touch both even and odd chunks (different engine shards).
    for (uint64_t i = 0; i < a.size(); i += 7) a.apply(i, add, 1);
  });
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    if (n != 1) return;
    for (uint64_t i = 0; i < a.size(); i += 7) ASSERT_EQ(a.get(i), 3u);
  });
}

TEST(DArrayMultiRt, LocksRouteToOwningEngine) {
  rt::Cluster cluster(multi_rt_cfg(2, 3));
  auto a = DArray<uint64_t>::create(cluster, 16 * 9);
  constexpr int kPerNode = 30;
  testing::run_on_nodes(cluster, [&](rt::NodeId) {
    for (int k = 0; k < kPerNode; ++k) {
      const uint64_t idx = static_cast<uint64_t>(k % 5) * 16;  // spans engines
      a.wlock(idx);
      a.set(idx, a.get(idx) + 1);
      a.unlock(idx);
    }
  });
  testing::run_on_nodes(cluster, [&](rt::NodeId n) {
    if (n != 0) return;
    uint64_t total = 0;
    for (int k = 0; k < 5; ++k) total += a.get(static_cast<uint64_t>(k) * 16);
    EXPECT_EQ(total, 2u * kPerNode);
  });
}

TEST(DArrayMultiRt, EvictionPerRegion) {
  // Each engine shard has its own small region; a sweep larger than the
  // combined capacity forces both engines to evict independently.
  rt::ClusterConfig cfg = multi_rt_cfg(2, 2);
  cfg.cachelines_per_region = 4;
  rt::Cluster cluster(cfg);
  auto a = DArray<uint64_t>::create(cluster, 16 * 64);
  std::thread t([&] {
    bind_thread(cluster, 1);
    for (uint64_t i = a.local_begin(0); i < a.local_end(0); ++i) a.set(i, i + 3);
  });
  t.join();
  std::thread check([&] {
    bind_thread(cluster, 0);
    for (uint64_t i = a.local_begin(0); i < a.local_end(0); ++i)
      ASSERT_EQ(a.get(i), i + 3);
  });
  check.join();
}

}  // namespace
}  // namespace darray
