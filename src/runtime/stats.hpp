// Runtime-layer counters: written under one engine shard's engine lock
// (by whichever thread runs its pass), aggregated on demand. Used by the ablation benches and by tests that assert *behaviour*
// (e.g. "prefetch turned N demand misses into hits") rather than timing.
#pragma once

#include <atomic>
#include <cstdint>

namespace darray::rt {

// A uint64 counter with the syntax of a plain field but relaxed-atomic
// accesses, so the telemetry sampler can aggregate per-thread stats while
// their writers keep bumping them. Relaxed is enough because each counter is
// independent and only ever summed.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t v) : v_(v) {}
  RelaxedCounter(const RelaxedCounter& o) : v_(o.get()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.get(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  operator uint64_t() const { return get(); }
  uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  uint64_t operator++(int) { return v_.fetch_add(1, std::memory_order_relaxed); }
  RelaxedCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_{0};
};

struct RuntimeStats {
  // interface → runtime traffic
  RelaxedCounter local_read_misses;
  RelaxedCounter local_write_misses;
  RelaxedCounter local_operate_misses;
  RelaxedCounter prefetches_issued;

  // requester side
  RelaxedCounter fills;             // kReadData/kWriteData/kOperateResp received
  RelaxedCounter invalidations;     // kInvalidate handled
  RelaxedCounter fetches;           // kFetch handled
  RelaxedCounter flush_reqs;        // kFlushReq handled
  RelaxedCounter evict_clean;       // Shared line dropped silently
  RelaxedCounter evict_writeback;   // Dirty line written back
  RelaxedCounter evict_opflush;     // Operated line flushed

  // array-compute collectives
  RelaxedCounter reduce_parts_rx;   // kReducePart messages delivered

  // home side
  RelaxedCounter remote_reqs;       // kReadReq/kWriteReq/kOperateReq served
  RelaxedCounter txns;              // multi-party transactions started
  RelaxedCounter op_flushes_applied;
  RelaxedCounter combine_flushes;   // kOpFlush messages sent (combine buffer drains)

  // locks
  RelaxedCounter lock_acquires;
  RelaxedCounter lock_waits;        // acquires that had to queue

  // who ran the engine pass, one count per submission (docs/perf.md)
  RelaxedCounter inline_passes;     // the submitting thread ran it
  RelaxedCounter handoffs;          // left to another thread's pass

  RuntimeStats& operator+=(const RuntimeStats& o) {
    local_read_misses += o.local_read_misses;
    local_write_misses += o.local_write_misses;
    local_operate_misses += o.local_operate_misses;
    prefetches_issued += o.prefetches_issued;
    fills += o.fills;
    invalidations += o.invalidations;
    fetches += o.fetches;
    flush_reqs += o.flush_reqs;
    evict_clean += o.evict_clean;
    evict_writeback += o.evict_writeback;
    evict_opflush += o.evict_opflush;
    reduce_parts_rx += o.reduce_parts_rx;
    remote_reqs += o.remote_reqs;
    txns += o.txns;
    op_flushes_applied += o.op_flushes_applied;
    combine_flushes += o.combine_flushes;
    lock_acquires += o.lock_acquires;
    lock_waits += o.lock_waits;
    inline_passes += o.inline_passes;
    handoffs += o.handoffs;
    return *this;
  }

  uint64_t total_misses() const {
    return local_read_misses + local_write_misses + local_operate_misses;
  }
  uint64_t total_evictions() const { return evict_clean + evict_writeback + evict_opflush; }
};

}  // namespace darray::rt
