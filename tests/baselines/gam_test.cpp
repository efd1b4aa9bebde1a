#include "baselines/gam/gam_array.hpp"

#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace darray::gam {
namespace {

using darray::testing::run_on_nodes;
using darray::testing::small_cfg;

TEST(GamArray, SetGetAcrossNodes) {
  rt::Cluster cluster(small_cfg(2));
  auto a = GamArray<uint64_t>::create(cluster, 200);
  run_on_nodes(cluster, [&](rt::NodeId n) {
    for (uint64_t i = a.local_begin(n); i < a.local_end(n); ++i) a.set(i, i * 3);
  });
  run_on_nodes(cluster, [&](rt::NodeId) {
    for (uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.get(i), i * 3);
  });
}

TEST(GamArray, AtomicRmwIsAtomicAcrossNodes) {
  // GAM's exclusive-ownership atomic: concurrent increments from every node
  // must all land (this is the baseline the Operate interface beats).
  rt::Cluster cluster(small_cfg(3));
  auto a = GamArray<uint64_t>::create(cluster, 192);
  constexpr int kPerNode = 100;
  run_on_nodes(cluster, [&](rt::NodeId) {
    for (int i = 0; i < kPerNode; ++i)
      a.atomic_rmw(5, +[](uint64_t x, uint64_t d) { return x + d; }, uint64_t{1});
  });
  run_on_nodes(cluster, [&](rt::NodeId) { EXPECT_EQ(a.get(5), 3u * kPerNode); });
}

TEST(GamArray, AtomicRmwIsAtomicAcrossThreads) {
  rt::Cluster cluster(small_cfg(2));
  auto a = GamArray<uint64_t>::create(cluster, 128);
  darray::testing::run_on_nodes_mt(cluster, 3, [&](rt::NodeId, uint32_t) {
    for (int i = 0; i < 50; ++i)
      a.atomic_rmw(0, +[](uint64_t x, uint64_t d) { return x + d; }, uint64_t{1});
  });
  bind_thread(cluster, 0);
  EXPECT_EQ(a.get(0), 2u * 3 * 50);
}

TEST(GamArray, BulkTransfers) {
  rt::Cluster cluster(small_cfg(2, /*chunk_elems=*/32));
  auto a = GamArray<uint8_t>::create(cluster, 512);
  std::vector<uint8_t> src(200);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i);
  std::thread w([&] {
    bind_thread(cluster, 1);
    // spans several chunks
    ASSERT_EQ(a.set_range(100, std::span<const uint8_t>(src)), Status::kOk);
  });
  w.join();
  std::thread r([&] {
    bind_thread(cluster, 0);
    std::vector<uint8_t> dst(200);
    ASSERT_EQ(a.get_range(100, std::span<uint8_t>(dst)), Status::kOk);
    EXPECT_EQ(dst, src);
  });
  r.join();
}

TEST(GamArray, LocksWork) {
  rt::Cluster cluster(small_cfg(2));
  auto a = GamArray<uint64_t>::create(cluster, 128);
  run_on_nodes(cluster, [&](rt::NodeId) {
    for (int i = 0; i < 40; ++i) {
      a.wlock(9);
      a.set(9, a.get(9) + 1);
      a.unlock(9);
    }
  });
  bind_thread(cluster, 0);
  EXPECT_EQ(a.get(9), 80u);
}

}  // namespace
}  // namespace darray::gam
