#include "runtime/cache_region.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/message.hpp"

namespace darray::rt {

namespace {
// One slot holds chunk data (elements capped at 8 bytes) plus combine slots.
size_t slot_bytes(const ClusterConfig& cfg) { return size_t{cfg.chunk_elems} * 8 * 2; }
size_t bitmap_words(const ClusterConfig& cfg) { return (cfg.chunk_elems + 63) / 64; }
}  // namespace

CacheRegion::CacheRegion(rdma::Device* device, const ClusterConfig& cfg)
    : low_wm_(cfg.low_watermark), high_wm_(cfg.high_watermark) {
  const size_t n = cfg.cachelines_per_region;
  const size_t sbytes = slot_bytes(cfg);
  const size_t words = bitmap_words(cfg);
  arena_ = std::make_unique<std::byte[]>(n * sbytes);
  bitmap_arena_ = std::make_unique<std::atomic<uint64_t>[]>(n * words);
  mr_ = device->reg_mr(arena_.get(), n * sbytes);

  lines_.reserve(n);
  free_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto line = std::make_unique<CacheLine>();
    line->data = arena_.get() + i * sbytes;
    line->combine_slots = line->data + size_t{cfg.chunk_elems} * 8;
    line->bitmap = bitmap_arena_.get() + i * words;
    lines_.push_back(std::move(line));
    free_.push_back(lines_.back().get());
  }
}

CacheLine* CacheRegion::allocate(ArrayId array, ChunkId chunk) {
  if ((free_.empty() && !tick_pending_releases()) || free_.empty()) {
    bump(alloc_failures_);
    return nullptr;
  }
  CacheLine* line = free_.back();
  free_.pop_back();
  line->array = array;
  line->chunk = chunk;
  line->used = true;
  bump(allocs_);
  return line;
}

void CacheRegion::free(CacheLine* line) {
  DARRAY_ASSERT(line->used);
  DARRAY_ASSERT(line->tx_posted.load(std::memory_order_acquire) == 1);
  line->used = false;
  free_.push_back(line);
  bump(releases_);
}

void CacheRegion::free_when_posted(CacheLine* line) {
  DARRAY_ASSERT(line->used);
  line->used = false;
  pending_release_.push_back(line);
  bump(deferred_releases_);
}

bool CacheRegion::ring_when_posted() {
  for (CacheLine* l : pending_release_) {
    uint32_t queued = 0;
    l->tx_posted.compare_exchange_strong(queued, net::kRingWhenPosted);
  }
  return !pending_release_.empty();
}

bool CacheRegion::tick_pending_releases() {
  bool progressed = false;
  auto posted = [](CacheLine* l) {
    return l->tx_posted.load(std::memory_order_acquire) == 1;
  };
  for (CacheLine*& l : pending_release_) {
    if (posted(l)) {
      free_.push_back(l);
      l = nullptr;
      progressed = true;
    }
  }
  if (progressed)
    std::erase(pending_release_, nullptr);
  return progressed;
}

}  // namespace darray::rt
