// StatsRegistry / StatsSnapshot: naming, lookup, JSON shape, and snapshot
// consistency while sources are being bumped and registered concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/stats_registry.hpp"

namespace darray::obs {
namespace {

TEST(StatsSnapshot, AddFindValueOr) {
  StatsSnapshot s;
  s.add("fabric.sends", 12);
  s.add("pool.hits", 0);
  ASSERT_NE(s.find("fabric.sends"), nullptr);
  EXPECT_EQ(*s.find("fabric.sends"), 12u);
  EXPECT_EQ(s.find("fabric.nope"), nullptr);
  EXPECT_EQ(s.value_or("pool.hits", 99), 0u);
  EXPECT_EQ(s.value_or("missing", 99), 99u);
}

TEST(StatsSnapshot, HistogramFlattensToPercentileEntries) {
  AtomicLatencyHistogram h;
  for (uint64_t i = 1; i <= 100; ++i) h.record(i * 1000);
  StatsSnapshot s;
  s.add_histogram("op.get", h.snapshot());
  EXPECT_EQ(s.value_or("op.get.count"), 100u);
  EXPECT_GT(s.value_or("op.get.mean_ns"), 0u);
  EXPECT_GT(s.value_or("op.get.p99_ns"), s.value_or("op.get.p50_ns"));
}

TEST(StatsSnapshot, ToJsonIsWellFormed) {
  StatsSnapshot s;
  s.add("a.x", 1);
  s.add("a.y", 2);
  EXPECT_EQ(s.to_json(), "{\n  \"a.x\": 1,\n  \"a.y\": 2\n}");
  // Empty snapshots still produce a valid object.
  EXPECT_EQ(StatsSnapshot{}.to_json(), "{\n}");
}

TEST(StatsRegistry, SourcesRunInRegistrationOrder) {
  StatsRegistry reg;
  reg.add_source([](StatsSnapshot& s) { s.add("first", 1); });
  reg.add_source([](StatsSnapshot& s) { s.add("second", 2); });
  const StatsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.entries[0].name, "first");
  EXPECT_EQ(s.entries[1].name, "second");
}

// Snapshots taken while counters advance and new sources register must stay
// internally consistent: every registered source contributes exactly once,
// and a monotonic counter never appears to run backwards across snapshots.
TEST(StatsRegistry, SnapshotConsistentUnderConcurrentOps) {
  StatsRegistry reg;
  std::atomic<uint64_t> counter{0};
  reg.add_source([&](StatsSnapshot& s) {
    s.add("test.counter", counter.load(std::memory_order_relaxed));
  });

  std::atomic<bool> stop{false};
  std::thread bump([&] {
    while (!stop.load(std::memory_order_relaxed))
      counter.fetch_add(1, std::memory_order_relaxed);
  });
  std::thread registrar([&] {
    for (int i = 0; i < 100; ++i)
      reg.add_source([](StatsSnapshot& s) { s.add("test.extra", 7); });
  });

  uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    const StatsSnapshot s = reg.snapshot();
    const uint64_t v = s.value_or("test.counter", ~0ull);
    ASSERT_NE(v, ~0ull);          // the counter source always reports
    EXPECT_GE(v, last);           // monotonic across snapshots
    last = v;
    for (const StatEntry& e : s.entries) {
      if (e.name == "test.extra") {
        EXPECT_EQ(e.value, 7u);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  bump.join();
  registrar.join();

  // All 100 late sources made it in; each contributes exactly one entry.
  const StatsSnapshot fin = reg.snapshot();
  size_t extras = 0;
  for (const StatEntry& e : fin.entries)
    if (e.name == "test.extra") ++extras;
  EXPECT_EQ(extras, 100u);
}

TEST(StatsSnapshot, DeltaSubtractsCountersButPassesPointSamples) {
  StatsSnapshot base;
  base.add("fabric.sends", 100);
  base.add("hist.op.get.p99_ns", 5'000);
  base.add("hist.op.get.count", 10);
  StatsSnapshot now;
  now.add("fabric.sends", 130);
  now.add("hist.op.get.p99_ns", 9'000);
  now.add("hist.op.get.count", 25);
  now.add("runtime.fills", 4);  // absent from base: kept as-is

  const StatsSnapshot d = now.delta_from(base);
  EXPECT_EQ(d.value_or("fabric.sends"), 30u);
  EXPECT_EQ(d.value_or("hist.op.get.count"), 15u);
  // A percentile is a point sample, not a monotonic counter: subtracting two
  // of them is meaningless, so the current value passes through.
  EXPECT_EQ(d.value_or("hist.op.get.p99_ns"), 9'000u);
  EXPECT_EQ(d.value_or("runtime.fills"), 4u);
}

// Regression (obs v3): histogram cells flatten into ".bkt_<upper>" entries
// carrying each bucket's own (non-cumulative) count, and stats_delta_since /
// delta_from must subtract them like any counter while still passing the
// percentile point samples through. With cumulative bucket entries a bucket
// first appearing after the baseline would double-count everything below it;
// the sparse own-count encoding keeps deltas exact.
TEST(StatsSnapshot, HistogramBucketEntriesSubtractLikeCounters) {
  AtomicLatencyHistogram h;
  for (int i = 0; i < 5; ++i) h.record(100);
  StatsSnapshot base;
  base.add_histogram("hist.op.get", h.snapshot());

  for (int i = 0; i < 3; ++i) h.record(100);
  for (int i = 0; i < 2; ++i) h.record(1'000'000);  // new bucket, post-baseline
  StatsSnapshot now;
  now.add_histogram("hist.op.get", h.snapshot());

  const std::string fast_bkt =
      "hist.op.get.bkt_" +
      std::to_string(AtomicLatencyHistogram::bucket_upper(
          AtomicLatencyHistogram::bucket_index(100)));
  const std::string slow_bkt =
      "hist.op.get.bkt_" +
      std::to_string(AtomicLatencyHistogram::bucket_upper(
          AtomicLatencyHistogram::bucket_index(1'000'000)));
  ASSERT_EQ(base.value_or(fast_bkt), 5u);
  ASSERT_EQ(base.find(slow_bkt), nullptr);  // sparse: empty buckets absent
  ASSERT_EQ(now.value_or(fast_bkt), 8u);
  ASSERT_EQ(now.value_or(slow_bkt), 2u);

  const StatsSnapshot d = now.delta_from(base);
  EXPECT_EQ(d.value_or("hist.op.get.count"), 5u);
  EXPECT_EQ(d.value_or("hist.op.get.sum_ns"), 3u * 100u + 2u * 1'000'000u);
  EXPECT_EQ(d.value_or(fast_bkt), 3u);
  // Bucket absent from the baseline: its full count is the delta, with no
  // spill-over into other buckets.
  EXPECT_EQ(d.value_or(slow_bkt), 2u);
  // Percentiles remain point samples and pass through untouched.
  EXPECT_EQ(d.value_or("hist.op.get.p50_ns"), now.value_or("hist.op.get.p50_ns"));
  // Delta buckets sum to delta count: nothing double-counted.
  uint64_t bucket_total = 0;
  for (const StatEntry& e : d.entries)
    if (e.name.find(".bkt_") != std::string::npos) bucket_total += e.value;
  EXPECT_EQ(bucket_total, 5u);
}

TEST(StatsSnapshot, IsPointSampleClassification) {
  EXPECT_TRUE(stats_is_point_sample("hist.op.get.p50_ns"));
  EXPECT_TRUE(stats_is_point_sample("hist.op.get.p999_ns"));
  EXPECT_TRUE(stats_is_point_sample("hist.msg.ReadReq.mean_ns"));
  EXPECT_TRUE(stats_is_point_sample("hist.op.get.max_ns"));
  EXPECT_FALSE(stats_is_point_sample("hist.op.get.count"));
  EXPECT_FALSE(stats_is_point_sample("hist.op.get.sum_ns"));
  EXPECT_FALSE(stats_is_point_sample("hist.op.get.bkt_1024"));
  EXPECT_FALSE(stats_is_point_sample("fabric.sends"));
}

TEST(StatsSnapshot, DeltaSaturatesInsteadOfUnderflowing) {
  // A counter going backwards (a reset between snapshots) must clamp to 0,
  // not wrap to ~2^64.
  StatsSnapshot base, now;
  base.add("test.counter", 50);
  now.add("test.counter", 20);
  EXPECT_EQ(now.delta_from(base).value_or("test.counter"), 0u);
}

TEST(StatsRegistry, NamedBaselinesIsolatePhases) {
  StatsRegistry reg;
  uint64_t counter = 100;
  reg.add_source([&](StatsSnapshot& s) { s.add("test.ops", counter); });

  reg.mark_baseline("phase1");
  counter += 40;
  EXPECT_EQ(reg.delta_since("phase1").value_or("test.ops"), 40u);

  // A second mark under the same tag replaces the first.
  reg.mark_baseline("phase1");
  counter += 5;
  EXPECT_EQ(reg.delta_since("phase1").value_or("test.ops"), 5u);

  // Tags are independent.
  reg.mark_baseline("phase2");
  counter += 7;
  EXPECT_EQ(reg.delta_since("phase2").value_or("test.ops"), 7u);
  EXPECT_EQ(reg.delta_since("phase1").value_or("test.ops"), 12u);

  // An unknown tag degrades to a plain snapshot rather than failing.
  EXPECT_EQ(reg.delta_since("never_marked").value_or("test.ops"), counter);
}

}  // namespace
}  // namespace darray::obs
