// AtomicLatencyHistogram: bucket math at the edges, percentile queries on
// known distributions, snapshot merging, registry cell isolation, and — the
// property the lock-free design exists for — no lost or invented samples
// under concurrent record + snapshot (run under TSan in the obs CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/latency_histogram.hpp"

using namespace darray::obs;

TEST(LatencyHistogram, BucketIndexIsMonotoneAndInRange) {
  int prev = -1;
  for (uint64_t n : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull, 1'000ull,
                     1'000'000ull, 1'000'000'000ull, 10'000'000'000ull, ~0ull}) {
    const int idx = AtomicLatencyHistogram::bucket_index(n);
    ASSERT_GE(idx, 0) << n;
    ASSERT_LT(idx, kHistBuckets) << n;
    ASSERT_GE(idx, prev) << n;  // larger values never map to lower buckets
    prev = idx;
  }
}

TEST(LatencyHistogram, BucketUpperBoundsItsOwnIndex) {
  // Every value must fall in a bucket whose upper bound is >= the value and
  // within 12.5% of it (3 significant bits), the resolution the header
  // comment promises.
  for (uint64_t n : {1ull, 12ull, 999ull, 4'096ull, 123'456ull, 987'654'321ull,
                     10'000'000'000ull}) {
    const int idx = AtomicLatencyHistogram::bucket_index(n);
    const uint64_t upper = AtomicLatencyHistogram::bucket_upper(idx);
    ASSERT_GE(upper, n);
    EXPECT_LE(static_cast<double>(upper - n), 0.125 * static_cast<double>(n) + 1.0)
        << "value " << n << " bucket upper " << upper;
  }
}

TEST(LatencyHistogram, PercentilesOnKnownDistribution) {
  AtomicLatencyHistogram h;
  // 900 fast ops at ~1 µs, 90 at ~100 µs, 10 at ~10 ms.
  for (int i = 0; i < 900; ++i) h.record(1'000);
  for (int i = 0; i < 90; ++i) h.record(100'000);
  for (int i = 0; i < 10; ++i) h.record(10'000'000);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1'000u);
  EXPECT_EQ(s.sum_ns, 900u * 1'000 + 90u * 100'000 + 10u * 10'000'000);

  auto near = [](uint64_t got, uint64_t want) {
    return got >= want && static_cast<double>(got) <= 1.13 * static_cast<double>(want);
  };
  EXPECT_TRUE(near(s.percentile_ns(0.50), 1'000)) << s.percentile_ns(0.50);
  EXPECT_TRUE(near(s.percentile_ns(0.90), 1'000)) << s.percentile_ns(0.90);
  EXPECT_TRUE(near(s.percentile_ns(0.99), 100'000)) << s.percentile_ns(0.99);
  EXPECT_TRUE(near(s.percentile_ns(0.999), 10'000'000)) << s.percentile_ns(0.999);
  EXPECT_TRUE(near(s.max_ns(), 10'000'000)) << s.max_ns();
  EXPECT_NEAR(s.mean_ns(), 109'900.0, 1.0);
}

// The mean comes from the exact running sum, not from bucket bounds.
TEST(Histogram, MeanExact) {
  AtomicLatencyHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_DOUBLE_EQ(h.snapshot().mean_ns(), 50.5);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  AtomicLatencyHistogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile_ns(0.99), 0u);
  EXPECT_EQ(s.max_ns(), 0u);
  EXPECT_EQ(s.mean_ns(), 0.0);
}

// reset() returns a used histogram to the empty state.
TEST(Histogram, ResetClears) {
  AtomicLatencyHistogram h;
  h.record(123);
  h.reset();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum_ns, 0u);
  EXPECT_EQ(s.percentile_ns(0.99), 0u);
  EXPECT_EQ(s.max_ns(), 0u);
  EXPECT_EQ(s.mean_ns(), 0.0);
}

TEST(LatencyHistogram, ExtremeValuesClampIntoTheTopBucket) {
  AtomicLatencyHistogram h;
  h.record(~0ull);
  h.record(~0ull - 1);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[kHistBuckets - 1], 2u);  // clamped, not lost
}

TEST(LatencyHistogram, MergeAddsCountsAndSums) {
  AtomicLatencyHistogram a, b;
  for (int i = 0; i < 10; ++i) a.record(1'000);
  for (int i = 0; i < 5; ++i) b.record(2'000'000);
  HistogramSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.count, 15u);
  EXPECT_EQ(s.sum_ns, 10u * 1'000 + 5u * 2'000'000);
  EXPECT_GE(s.max_ns(), 2'000'000u);
}

TEST(LatencyHistogram, RegistryCellsAreIsolated) {
  reset_latency_histograms();
  record_op_latency(OpKind::kGet, /*node=*/0, 5'000);
  record_op_latency(OpKind::kGet, /*node=*/1, 7'000);
  record_op_latency(OpKind::kSet, /*node=*/0, 9'000);
  EXPECT_EQ(op_latency_snapshot(OpKind::kGet, 0).count, 1u);
  EXPECT_EQ(op_latency_snapshot(OpKind::kGet, 1).count, 1u);
  EXPECT_EQ(op_latency_snapshot(OpKind::kGet).count, 2u);  // merged across nodes
  EXPECT_EQ(op_latency_snapshot(OpKind::kSet).count, 1u);
  EXPECT_EQ(op_latency_snapshot(OpKind::kApply).count, 0u);
  // Out-of-range node: dropped, not aliased onto a real cell.
  record_op_latency(OpKind::kGet, kHistMaxNodes, 1'000);
  EXPECT_EQ(op_latency_snapshot(OpKind::kGet).count, 2u);
  reset_latency_histograms();
  EXPECT_EQ(op_latency_snapshot(OpKind::kGet).count, 0u);
}

// The concurrency contract: writers never lose a sample, and a reader
// snapshotting mid-flight sees a prefix (never garbage). Exact counts are
// asserted after the writers join. TSan verifies the absence of data races.
TEST(LatencyHistogram, ConcurrentRecordAndSnapshotLosesNothing) {
  AtomicLatencyHistogram h;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50'000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  ts.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&h, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i)
        h.record(1'000 + static_cast<uint64_t>(w) * 100'000 + (i & 1023));
    });
  }
  // A reader hammering snapshots while the writers run: count must only grow.
  ts.emplace_back([&h, &stop] {
    uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t c = h.snapshot().count;
      ASSERT_GE(c, prev);
      prev = c;
    }
  });
  for (int w = 0; w < kWriters; ++w) ts[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  ts.back().join();

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
}

TEST(LatencyHistogram, ConcurrentRecordToSharedRegistryCell) {
  reset_latency_histograms();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20'000;
  std::vector<std::thread> ts;
  for (int w = 0; w < kWriters; ++w)
    ts.emplace_back([] {
      for (uint64_t i = 0; i < kPerWriter; ++i)
        record_op_latency(OpKind::kApply, /*node=*/2, 10'000 + i);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(op_latency_snapshot(OpKind::kApply, 2).count, kWriters * kPerWriter);
  EXPECT_EQ(op_latency_snapshot(OpKind::kApply).count, kWriters * kPerWriter);
  reset_latency_histograms();
}
