// The node's cache region (paper Fig. 7): a fixed pool of cachelines with a
// private scanning pointer, touched only by engine passes, so eviction never
// touches the application fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "rdma/device.hpp"
#include "runtime/types.hpp"

namespace darray::rt {

struct CacheLine {
  std::byte* data = nullptr;                    // chunk data (registered MR)
  std::byte* combine_slots = nullptr;           // chunk_elems u64 slots
  std::atomic<uint64_t>* bitmap = nullptr;      // touched-element bitmap
  ArrayId array = 0;
  ChunkId chunk = 0;
  bool used = false;
  // 0 while an eviction's one-sided WRITE is still queued for a Tx pass (or
  // net::kRingWhenPosted, once a waiting allocation asked for a ring); the
  // slot may not be recycled until the pass sets it to 1.
  std::atomic<uint32_t> tx_posted{1};
};

// Obs counters for one region, sampled from any thread (the region's vectors
// stay owner-private; only these relaxed atomics cross threads).
struct CacheRegionStats {
  uint64_t allocs = 0;
  uint64_t alloc_failures = 0;       // allocate() returned nullptr
  uint64_t releases = 0;             // immediate free()
  uint64_t deferred_releases = 0;    // free_when_posted()

  CacheRegionStats& operator+=(const CacheRegionStats& o) {
    allocs += o.allocs;
    alloc_failures += o.alloc_failures;
    releases += o.releases;
    deferred_releases += o.deferred_releases;
    return *this;
  }
};

class CacheRegion {
 public:
  CacheRegion(rdma::Device* device, const ClusterConfig& cfg);

  CacheRegion(const CacheRegion&) = delete;
  CacheRegion& operator=(const CacheRegion&) = delete;

  // nullptr when no slot is free — the engine must reclaim first.
  CacheLine* allocate(ArrayId array, ChunkId chunk);

  void free(CacheLine* line);

  // Release once the line's pending data WRITE has been posted (tx_posted).
  void free_when_posted(CacheLine* line);

  // Retire pending releases whose WRITE has been posted. Returns true if any
  // slot was freed.
  bool tick_pending_releases();

  // For a request that waits on a slot: ask each pending release to ring the
  // engine once its WRITE is posted (net::kRingWhenPosted). Returns whether
  // a release is pending.
  bool ring_when_posted();

  size_t capacity() const { return lines_.size(); }
  size_t free_count() const { return free_.size() + pending_release_.size(); }

  bool below_low_watermark() const {
    return free_count() < static_cast<size_t>(low_wm_ * static_cast<double>(capacity()));
  }
  size_t high_watermark_count() const {
    return static_cast<size_t>(high_wm_ * static_cast<double>(capacity()));
  }

  // Eviction scan support (engine drives the policy).
  CacheLine& slot(size_t i) { return *lines_[i]; }
  size_t scan_ptr = 0;

  uint32_t data_rkey() const { return mr_.rkey; }
  uint32_t data_lkey() const { return mr_.lkey; }

  CacheRegionStats stats() const {
    CacheRegionStats s;
    s.allocs = allocs_.load(std::memory_order_relaxed);
    s.alloc_failures = alloc_failures_.load(std::memory_order_relaxed);
    s.releases = releases_.load(std::memory_order_relaxed);
    s.deferred_releases = deferred_releases_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // Single-writer (the engine's passes); relaxed so cross-thread stats
  // sampling never touches the owner-private vectors.
  void bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> alloc_failures_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> deferred_releases_{0};

  const double low_wm_;
  const double high_wm_;
  std::unique_ptr<std::byte[]> arena_;
  std::unique_ptr<std::atomic<uint64_t>[]> bitmap_arena_;
  rdma::MemoryRegion mr_;
  std::vector<std::unique_ptr<CacheLine>> lines_;
  std::vector<CacheLine*> free_;
  std::vector<CacheLine*> pending_release_;
};

}  // namespace darray::rt
