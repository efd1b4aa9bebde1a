// One stats plane over many layers: the scattered counters (FabricStats, the
// runtime cache/combine counters, payload-pool hits, chaos fault counters,
// trace-ring totals) register as named sources and a single snapshot() walks
// them all. Names are dotted — "fabric.sends", "runtime.local_read_misses",
// "pool.hits", "chaos.rnr_rejections" — so reports and tools can group by
// prefix. Counter values are monotonic per source; a snapshot taken while
// traffic is live is a consistent *sample* (each counter read once, fields of
// one source read together), not an atomic cut across layers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/spinlock.hpp"
#include "obs/latency_histogram.hpp"

namespace darray::obs {

struct StatEntry {
  std::string name;
  uint64_t value = 0;
};

// True for entries whose value is a point sample (percentiles, means, maxima:
// ".mean_ns", ".p50_ns", ..., ".max_ns") rather than a monotonic counter.
// Deltas subtract counters and pass point samples through; the telemetry
// sampler stores counters as per-interval deltas and point samples raw.
// Histogram bucket entries (".bkt_<upper>") and ".count"/".sum_ns" are
// counters — see StatsSnapshot::add_histogram.
bool stats_is_point_sample(std::string_view name);

// A plain name→value list; histograms are flattened into it.
struct StatsSnapshot {
  std::vector<StatEntry> entries;

  void add(std::string name, uint64_t value) { entries.push_back({std::move(name), value}); }
  // Flattens one histogram snapshot: .count/.sum_ns/.mean_ns/
  // .p50_ns/.p90_ns/.p99_ns/.p999_ns/.max_ns, plus one ".bkt_<upper_ns>"
  // entry per non-empty bucket carrying that bucket's own (non-cumulative)
  // count. Bucket entries are monotonic counters, so snapshot deltas subtract
  // them like any other counter — the /metrics renderer turns them back into
  // Prometheus' cumulative `le` form at exposition time.
  void add_histogram(const std::string& prefix, const HistogramSnapshot& h);

  const uint64_t* find(std::string_view name) const;
  uint64_t value_or(std::string_view name, uint64_t def = 0) const;

  // Per-name saturating difference (this - base); names absent from `base`
  // keep their value. Meaningful for monotonic counters — percentile entries
  // (.p50_ns etc.) are point samples, and their differences are noise, so
  // they are passed through unchanged rather than subtracted.
  StatsSnapshot delta_from(const StatsSnapshot& base) const;

  // {"a.b": 1, "a.c": 2, ...} — one entry per line, each line prefixed with
  // `line_prefix` (so reports can indent the block they embed it in).
  std::string to_json(const char* line_prefix = "") const;
};

class StatsRegistry {
 public:
  using Source = std::function<void(StatsSnapshot&)>;

  // Sources run in registration order at every snapshot(). A source must be
  // callable from any thread and must not block on the data path it observes.
  void add_source(Source src);

  StatsSnapshot snapshot() const;

  // Named baselines: mark_baseline("warmup") captures a snapshot under `tag`
  // (replacing a previous one with the same tag); delta_since("warmup")
  // returns the current snapshot minus that baseline. An unknown tag yields
  // the plain current snapshot (delta from empty).
  void mark_baseline(const std::string& tag);
  StatsSnapshot delta_since(const std::string& tag) const;

 private:
  mutable SpinLock mu_;
  std::vector<Source> sources_;
  std::vector<std::pair<std::string, StatsSnapshot>> baselines_;
};

}  // namespace darray::obs
