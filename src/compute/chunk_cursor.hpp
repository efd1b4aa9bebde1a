// Chunked iteration over a DArray extent with communication/compute overlap.
//
// A ChunkCursor walks [begin, end) of a DArray in fixed-size chunks. Each
// next() hands the kernel a View into a private buffer; in overlap mode the
// cursor first issues prefetch_range() for the next `prefetch_depth` buffers,
// so engine passes and progress threads stream chunk k+1..k+d in from their
// homes while the application thread's kernel consumes chunk k. The fetch
// pipeline is the existing range/prefetch machinery — the cursor adds no
// threads of its own, it only keeps the read-ahead window full.
//
// Accounting (compute.* in the StatsRegistry): every view bumps
// compute.chunks; a view that covers at least one non-home chunk bumps
// compute.prefetch_hits when the whole extent is already cached at fill time
// and compute.prefetch_misses when the fill has to pay a demand miss.
// Home-only views count neither — local data needs no overlap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/darray.hpp"
#include "obs/compute_stats.hpp"

namespace darray::compute {

// Knobs shared by cursors and collectives. Defaults favour streaming:
// array-chunk-sized buffers with a few chunks of read-ahead in flight.
struct Options {
  uint32_t chunk_elems = 0;     // cursor buffer size in elements; 0 = array chunk size
  uint32_t prefetch_depth = 4;  // buffers of read-ahead kept in flight (overlap mode)
  bool overlap = true;          // false: pure demand fetching (the ablation baseline)
  bool deterministic = false;   // reductions: fixed tree order + pairwise summation
};

// Double buffer backing a ChunkCursor (the DistrArray BufferManager idiom):
// the view handed to the kernel lives in one half while the next fill lands
// in the other, so a view stays valid across one subsequent next().
template <typename T>
class BufferManager {
 public:
  explicit BufferManager(uint32_t elems) {
    bufs_[0].resize(elems);
    bufs_[1].resize(elems);
  }
  // The buffer to fill next; flips the halves.
  T* acquire() {
    cur_ ^= 1;
    return bufs_[cur_].data();
  }

 private:
  std::vector<T> bufs_[2];
  int cur_ = 0;
};

template <typename T>
class ChunkCursor {
 public:
  struct View {
    const T* data = nullptr;
    uint64_t first = 0;  // global index of data[0]
    uint64_t count = 0;
    std::span<const T> span() const { return {data, count}; }
  };

  ChunkCursor(const DArray<T>& a, uint64_t begin, uint64_t end, const Options& opt = {})
      : a_(a),
        pos_(begin),
        end_(end),
        buf_elems_(opt.chunk_elems ? opt.chunk_elems : a.meta().chunk_elems),
        depth_(std::max<uint32_t>(1, opt.prefetch_depth)),
        overlap_(opt.overlap),
        prefetched_to_(begin),
        bufs_(buf_elems_) {
    DARRAY_ASSERT(begin <= end && end <= a.size());
  }

  // Fills `v` with the next chunk; false once the extent is exhausted. The
  // previous view stays valid until the next-but-one call (double buffer).
  bool next(View& v) {
    if (pos_ >= end_) return false;
    const uint64_t count = std::min<uint64_t>(buf_elems_, end_ - pos_);
    if (overlap_) read_ahead(pos_ + count);
    obs::ComputeCounters& c = obs::compute_counters();
    if (covers_remote(pos_, count)) {
      if (a_.range_cached(pos_, count))
        c.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      else
        c.prefetch_misses.fetch_add(1, std::memory_order_relaxed);
    }
    T* buf = bufs_.acquire();
    a_.get_range(pos_, std::span<T>(buf, count));
    v = View{buf, pos_, count};
    pos_ += count;
    c.chunks.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  // Keep [pos, pos + depth × buffer) covered by issued prefetches.
  void read_ahead(uint64_t from) {
    const uint64_t want =
        std::min<uint64_t>(end_, from + uint64_t{depth_} * buf_elems_);
    if (prefetched_to_ < from) prefetched_to_ = from;
    if (want > prefetched_to_) {
      a_.prefetch_range(prefetched_to_, want - prefetched_to_);
      prefetched_to_ = want;
    }
  }

  bool covers_remote(uint64_t first, uint64_t count) const {
    const rt::ArrayMeta& m = a_.meta();
    const rt::NodeId self = this_thread_ctx().node;
    const rt::ChunkId c1 = m.chunk_of(first + count - 1);
    for (rt::ChunkId c = m.chunk_of(first); c <= c1; ++c)
      if (m.home_of_chunk(c) != self) return true;
    return false;
  }

  const DArray<T>& a_;
  uint64_t pos_;
  const uint64_t end_;
  const uint32_t buf_elems_;
  const uint32_t depth_;
  const bool overlap_;
  uint64_t prefetched_to_;
  BufferManager<T> bufs_;
};

}  // namespace darray::compute
