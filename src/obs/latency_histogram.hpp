// Lock-free HDR-style latency histograms (obs v2), the codebase's one
// histogram: log-linear buckets that are atomic, so any thread can record
// while any other thread snapshots or merges — no locks, no allocation on the
// record path. Resolution is 8 sub-buckets per octave (3 significant
// bits, ≤12.5% relative error), covering 1 ns to ~4.5 minutes before the top
// bucket clamps; the product range of interest (~1 µs – 10 s) sits well
// inside that.
//
// record() is exactly two relaxed fetch_adds (bucket + running sum). The
// count is derived by summing buckets at snapshot time and max is the upper
// bound of the highest non-empty bucket, so the hot path never pays for a
// CAS loop. Percentile queries run on a plain-value HistogramSnapshot, which
// is copyable and mergeable across {op-type × node} and message-class cells.
//
// Two process-global registries back the instrumented sites:
//   op_latency_hist(kind, node)  — per {OpKind × recording node}, fed at
//                                  OpSpan end (core/darray.hpp);
//   msg_class_hist(cls)          — per wire message class (MsgType value, or
//                                  kMaxMsgType for one-sided data WRITEs),
//                                  fed at send-completion (net/comm_layer).
// Both are leaked singletons like the trace-ring registry, so dumps after
// thread exit read valid storage. Registries are global, not per-Cluster —
// benches reset them between phases via reset_latency_histograms().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"  // OpKind

namespace darray::obs {

// 8 sub-buckets per octave; indices [0, 8) map values directly.
inline constexpr int kHistSubBits = 3;
// 36 octave rows of 8: values up to 2^38 ns (~4.6 min) resolve, larger clamp.
inline constexpr int kHistBuckets = 36 << kHistSubBits;

inline constexpr uint32_t kHistMaxNodes = 64;  // matches ClusterConfig's cap

// Plain-value summary of one histogram: copy, merge, query — no atomics.
struct HistogramSnapshot {
  std::array<uint64_t, kHistBuckets> buckets{};
  uint64_t sum_ns = 0;
  uint64_t count = 0;

  void merge(const HistogramSnapshot& o) {
    for (int i = 0; i < kHistBuckets; ++i) buckets[static_cast<size_t>(i)] += o.buckets[static_cast<size_t>(i)];
    sum_ns += o.sum_ns;
    count += o.count;
  }

  double mean_ns() const {
    return count ? static_cast<double>(sum_ns) / static_cast<double>(count) : 0.0;
  }
  // q in [0, 1]; upper bound of the bucket holding the quantile (0 if empty).
  uint64_t percentile_ns(double q) const;
  // Upper bound of the highest non-empty bucket (≤12.5% above the true max).
  uint64_t max_ns() const;

  // "n=... mean=...ns p50=... p90=... p99=... p999=... max=..."
  std::string summary() const;
};

class AtomicLatencyHistogram {
 public:
  // Two relaxed atomic RMWs; no allocation, no ordering constraints.
  void record(uint64_t nanos) {
    buckets_[static_cast<size_t>(bucket_index(nanos))].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }

  // Safe concurrently with record(); a live snapshot is a consistent sample
  // of each bucket, not an atomic cut (count/sum may disagree by in-flight
  // records — the skew is bounded by the number of racing recorders).
  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (int i = 0; i < kHistBuckets; ++i) {
      const uint64_t v = buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
      s.buckets[static_cast<size_t>(i)] = v;
      s.count += v;
    }
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return s;
  }

  // Quiescent use only (benches between phases).
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
  }

  static int bucket_index(uint64_t nanos);
  static uint64_t bucket_upper(int idx);

 private:
  std::array<std::atomic<uint64_t>, kHistBuckets> buckets_{};
  std::atomic<uint64_t> sum_ns_{0};
};

// --- global registries -------------------------------------------------------

// Cell for {op-kind × recording node}; node is clamped-checked by the caller
// via record_op_latency (a site with no node context records nowhere).
AtomicLatencyHistogram& op_latency_hist(OpKind kind, uint16_t node);

// Guarded recording helper for span ends: drops samples with no usable node
// (unbound thread) instead of aliasing them onto a real node's cell.
void record_op_latency(OpKind kind, uint32_t node, uint64_t nanos);

// Cell per wire message class. The class of a SEND is its MsgType value; a
// one-sided data WRITE uses the reserved class one past the last MsgType
// (the caller owns that convention — see net/message.hpp kMsgClassDataWrite).
inline constexpr uint32_t kMaxMsgClasses = 32;
AtomicLatencyHistogram& msg_class_hist(uint8_t cls);

HistogramSnapshot op_latency_snapshot(OpKind kind, uint16_t node);
HistogramSnapshot op_latency_snapshot(OpKind kind);  // merged across nodes
HistogramSnapshot msg_class_snapshot(uint8_t cls);

// Zeroes every registry cell. Quiescent use only (between bench phases).
void reset_latency_histograms();

}  // namespace darray::obs
