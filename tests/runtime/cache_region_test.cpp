#include "runtime/cache_region.hpp"

#include <gtest/gtest.h>

#include "rdma/fabric.hpp"

namespace darray::rt {
namespace {

ClusterConfig cfg_with(uint32_t lines, uint32_t chunk_elems = 64) {
  ClusterConfig cfg;
  cfg.cachelines_per_region = lines;
  cfg.chunk_elems = chunk_elems;
  return cfg;
}

struct RegionFixture {
  rdma::Fabric fabric;
  rdma::Device* dev = fabric.create_device(0);
};

TEST(CacheRegion, AllocateUntilExhausted) {
  RegionFixture f;
  CacheRegion region(f.dev, cfg_with(4));
  EXPECT_EQ(region.capacity(), 4u);
  std::vector<CacheLine*> lines;
  for (int i = 0; i < 4; ++i) {
    CacheLine* l = region.allocate(0, static_cast<ChunkId>(i));
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(l->used);
    EXPECT_EQ(l->chunk, static_cast<ChunkId>(i));
    lines.push_back(l);
  }
  EXPECT_EQ(region.allocate(0, 99), nullptr);
  EXPECT_EQ(region.free_count(), 0u);
  region.free(lines[2]);
  EXPECT_EQ(region.free_count(), 1u);
  EXPECT_NE(region.allocate(0, 100), nullptr);
}

TEST(CacheRegion, BuffersAreDistinctAndSized) {
  RegionFixture f;
  const uint32_t chunk_elems = 64;
  CacheRegion region(f.dev, cfg_with(8, chunk_elems));
  CacheLine* a = region.allocate(0, 0);
  CacheLine* b = region.allocate(0, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Data and combine areas must not overlap between or within lines.
  EXPECT_NE(a->data, b->data);
  EXPECT_EQ(a->combine_slots, a->data + chunk_elems * 8);
  const auto dist = a->data < b->data ? b->data - a->data : a->data - b->data;
  EXPECT_GE(static_cast<size_t>(dist), size_t{chunk_elems} * 8 * 2);
  // Buffers are registered: writes must not fault and bitmap is aligned.
  a->data[0] = std::byte{1};
  a->bitmap[0].store(5, std::memory_order_relaxed);
  EXPECT_EQ(a->bitmap[0].load(std::memory_order_relaxed), 5u);
}

TEST(CacheRegion, WatermarksTrack) {
  RegionFixture f;
  ClusterConfig cfg = cfg_with(10);
  cfg.low_watermark = 0.3;
  cfg.high_watermark = 0.5;
  CacheRegion region(f.dev, cfg);
  EXPECT_FALSE(region.below_low_watermark());
  std::vector<CacheLine*> lines;
  for (int i = 0; i < 8; ++i) lines.push_back(region.allocate(0, static_cast<ChunkId>(i)));
  // 2 of 10 free = 20% < 30%.
  EXPECT_TRUE(region.below_low_watermark());
  EXPECT_EQ(region.high_watermark_count(), 5u);
  region.free(lines[0]);
  region.free(lines[1]);
  // 4 free = 40% >= 30%.
  EXPECT_FALSE(region.below_low_watermark());
}

TEST(CacheRegion, PendingReleaseWaitsForTxFlag) {
  RegionFixture f;
  CacheRegion region(f.dev, cfg_with(2));
  CacheLine* l = region.allocate(0, 0);
  ASSERT_NE(l, nullptr);
  l->tx_posted.store(0, std::memory_order_release);  // pretend a WRITE is queued
  region.free_when_posted(l);
  EXPECT_EQ(region.free_count(), 2u);  // counted as free capacity...
  EXPECT_FALSE(region.tick_pending_releases());
  // ...but not allocatable until the Tx pass posts the data.
  CacheLine* a = region.allocate(0, 1);
  CacheLine* b = region.allocate(0, 2);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(b, nullptr) << "pending line must not be recycled yet";
  l->tx_posted.store(1, std::memory_order_release);
  EXPECT_TRUE(region.tick_pending_releases());
  EXPECT_NE(region.allocate(0, 3), nullptr);
}

TEST(CacheRegion, ScanSlotsCoverCapacity) {
  RegionFixture f;
  CacheRegion region(f.dev, cfg_with(4));
  for (size_t i = 0; i < region.capacity(); ++i) {
    CacheLine& l = region.slot(i);
    EXPECT_FALSE(l.used);
    EXPECT_NE(l.data, nullptr);
  }
}

}  // namespace
}  // namespace darray::rt
