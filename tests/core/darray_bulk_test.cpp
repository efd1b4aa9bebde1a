// Bulk helpers: get_range / set_range / fill / reduce.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::small_cfg;

TEST(DArrayBulk, RoundTripWithinOneChunk) {
  rt::Cluster cluster(small_cfg(2, 64));
  auto a = DArray<uint64_t>::create(cluster, 256);
  bind_thread(cluster, 0);
  std::vector<uint64_t> src{1, 2, 3, 4, 5};
  ASSERT_EQ(a.set_range(10, std::span<const uint64_t>(src)), Status::kOk);
  std::vector<uint64_t> dst(5);
  ASSERT_EQ(a.get_range(10, std::span<uint64_t>(dst)), Status::kOk);
  EXPECT_EQ(dst, src);
}

TEST(DArrayBulk, SpansChunksAndNodes) {
  rt::Cluster cluster(small_cfg(2, /*chunk_elems=*/16));
  auto a = DArray<uint64_t>::create(cluster, 16 * 8);
  std::vector<uint64_t> src(100);
  std::iota(src.begin(), src.end(), 1000);
  std::thread w([&] {
    bind_thread(cluster, 1);
    // crosses the node boundary
    ASSERT_EQ(a.set_range(10, std::span<const uint64_t>(src)), Status::kOk);
  });
  w.join();
  std::thread r([&] {
    bind_thread(cluster, 0);
    std::vector<uint64_t> dst(100);
    ASSERT_EQ(a.get_range(10, std::span<uint64_t>(dst)), Status::kOk);
    EXPECT_EQ(dst, src);
    for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a.get(10 + i), src[i]);
  });
  r.join();
}

TEST(DArrayBulk, ByteElements) {
  rt::Cluster cluster(small_cfg(2, 64));
  auto a = DArray<uint8_t>::create(cluster, 1024);
  bind_thread(cluster, 0);
  std::vector<uint8_t> src(700);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i * 7);
  ASSERT_EQ(a.set_range(100, std::span<const uint8_t>(src)), Status::kOk);
  std::vector<uint8_t> dst(700);
  ASSERT_EQ(a.get_range(100, std::span<uint8_t>(dst)), Status::kOk);
  EXPECT_EQ(dst, src);
}

TEST(DArrayBulk, FillRange) {
  rt::Cluster cluster(small_cfg(2, 16));
  auto a = DArray<uint64_t>::create(cluster, 16 * 6);
  bind_thread(cluster, 0);
  a.fill(5, 70, 9); // crosses chunks and the node boundary
  for (uint64_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.get(i), (i >= 5 && i < 70) ? 9u : 0u) << i;
}

TEST(DArrayBulk, FillEmptyRangeIsNoop) {
  rt::Cluster cluster(small_cfg(1));
  auto a = DArray<uint64_t>::create(cluster, 64);
  bind_thread(cluster, 0);
  a.fill(10, 10, 5);
  EXPECT_EQ(a.get(10), 0u);
}

TEST(DArrayBulk, ReduceSum) {
  rt::Cluster cluster(small_cfg(2, 16));
  auto a = DArray<uint64_t>::create(cluster, 16 * 6);
  bind_thread(cluster, 0);
  for (uint64_t i = 0; i < a.size(); ++i) a.set(i, i);
  const uint64_t n = a.size();
  EXPECT_EQ(a.reduce(0, n, uint64_t{0}, [](uint64_t x, uint64_t y) { return x + y; }),
            n * (n - 1) / 2);
  EXPECT_EQ(a.reduce(10, 20, uint64_t{0}, [](uint64_t x, uint64_t y) { return x + y; }),
            10u + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19);
}

TEST(DArrayBulk, ReduceMaxAcrossNodes) {
  rt::Cluster cluster(small_cfg(3, 16));
  auto a = DArray<uint64_t>::create(cluster, 16 * 9);
  testing::run_on_nodes(cluster, [&](rt::NodeId nid) {
    for (uint64_t i = a.local_begin(nid); i < a.local_end(nid); ++i)
      a.set(i, (i * 37) % 1000);
  });
  std::thread t([&] {
    bind_thread(cluster, 1);
    uint64_t expect = 0;
    for (uint64_t i = 0; i < a.size(); ++i) expect = std::max(expect, (i * 37) % 1000);
    EXPECT_EQ(a.reduce(0, a.size(), uint64_t{0},
                       [](uint64_t x, uint64_t y) { return std::max(x, y); }),
              expect);
  });
  t.join();
}

TEST(DArrayBulk, BulkThroughPin) {
  rt::Cluster cluster(small_cfg(2, 64));
  auto a = DArray<uint64_t>::create(cluster, 128);
  std::thread t([&] {
    bind_thread(cluster, 1);
    ASSERT_TRUE(a.pin(0, PinMode::kWrite));
    std::vector<uint64_t> src(64);
    std::iota(src.begin(), src.end(), 7);
    // entirely inside the pinned chunk
    ASSERT_EQ(a.set_range(0, std::span<const uint64_t>(src)), Status::kOk);
    std::vector<uint64_t> dst(64);
    ASSERT_EQ(a.get_range(0, std::span<uint64_t>(dst)), Status::kOk);
    EXPECT_EQ(dst, src);
    a.unpin(0);
  });
  t.join();
}

}  // namespace
}  // namespace darray
