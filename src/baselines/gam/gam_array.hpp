// GAM-like baseline (Cai et al., VLDB'18): a cache-coherent distributed
// memory whose data access path is LOCK-BASED — the strawman of the paper's
// §4.1. Every get/set/atomic acquires the chunk's mutex, which (a) adds lock
// overhead to cache-hit accesses and (b) admits only one application thread
// per chunk at a time. Atomic read-modify-write operations acquire exclusive
// (write) ownership of the chunk, GAM's design that the Operate interface is
// measured against (Fig. 12c/13c/14).
//
// The coherence substrate is shared with DArray (both systems implement a
// directory protocol over RDMA; the paper's comparison is about the access
// path and the Operate semantics, not the directory plumbing).
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "common/spinlock.hpp"
#include "core/darray.hpp"

namespace darray::gam {

template <typename T>
class GamArray {
 public:
  static GamArray create(rt::Cluster& cluster, uint64_t n) {
    GamArray a;
    a.inner_ = DArray<T>::create(cluster, n);
    const uint64_t n_chunks = a.inner_.meta().n_chunks;
    a.locks_ = std::make_shared<std::vector<PerNodeLocks>>(cluster.num_nodes());
    for (auto& pl : *a.locks_) pl.mu = std::make_unique<SpinLock[]>(n_chunks);
    return a;
  }

  uint64_t size() const { return inner_.size(); }
  uint64_t local_begin(rt::NodeId n) const { return inner_.local_begin(n); }
  uint64_t local_end(rt::NodeId n) const { return inner_.local_end(n); }

  T get(uint64_t index) const {
    SpinLock& mu = chunk_lock(index);
    std::scoped_lock lk(mu);  // lock-based access path: every access pays
    return inner_.get(index);
  }

  void set(uint64_t index, T value) const {
    SpinLock& mu = chunk_lock(index);
    std::scoped_lock lk(mu);
    inner_.set(index, value);
  }

  // GAM-style atomic: take exclusive ownership of the whole chunk (write
  // permission bounces between nodes), then read-modify-write under it.
  void atomic_rmw(uint64_t index, T (*fn)(T, T), T operand) const {
    SpinLock& mu = chunk_lock(index);
    std::scoped_lock lk(mu);
    // Pin-for-write = hold exclusive ownership across the read and the write;
    // this is what makes GAM's atomics serialise cluster-wide.
    const bool pinned = inner_.pin(index, PinMode::kWrite);
    const T v = inner_.get(index);
    inner_.set(index, fn(v, operand));
    if (pinned) inner_.unpin(index);
  }

  // Range transfers with DArray's signatures, still paying the lock per
  // covered chunk.
  Status get_range(uint64_t first, std::span<T> out) const {
    return bulk(first, out.size(), [&](uint64_t i, uint64_t n, uint64_t done) {
      return inner_.get_range(i, out.subspan(done, n));
    });
  }
  Status set_range(uint64_t first, std::span<const T> src) const {
    return bulk(first, src.size(), [&](uint64_t i, uint64_t n, uint64_t done) {
      return inner_.set_range(i, src.subspan(done, n));
    });
  }

  // GAM exposes R/W locks like DArray does; reuse the same home-side table.
  void rlock(uint64_t index) const { inner_.rlock(index); }
  void wlock(uint64_t index) const { inner_.wlock(index); }
  void unlock(uint64_t index) const { inner_.unlock(index); }

 private:
  struct PerNodeLocks {
    std::unique_ptr<SpinLock[]> mu;
  };

  template <typename Fn>
  Status bulk(uint64_t index, uint64_t count, Fn&& fn) const {
    if (count > size() || index > size() - count) return Status::kOutOfRange;
    const uint32_t ce = inner_.meta().chunk_elems;
    uint64_t done = 0;
    while (done < count) {
      const uint64_t i = index + done;
      const uint64_t n = std::min<uint64_t>(count - done, ce - i % ce);
      std::scoped_lock lk(chunk_lock(i));
      const Status st = fn(i, n, done);
      if (st != Status::kOk) return st;
      done += n;
    }
    return Status::kOk;
  }

  SpinLock& chunk_lock(uint64_t index) const {
    const ThreadCtx& ctx = this_thread_ctx();
    return (*locks_)[ctx.node].mu[inner_.meta().chunk_of(index)];
  }

  DArray<T> inner_;
  std::shared_ptr<std::vector<PerNodeLocks>> locks_;
};

}  // namespace darray::gam
