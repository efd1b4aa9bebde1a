// Shared plumbing for the figure-reproduction harnesses: environment
// overrides, timed multi-threaded op loops, and paper-style table printing.
//
// Every bench binary honours:
//   DARRAY_BENCH_NODES    max node count for inter-node sweeps (default 4)
//   DARRAY_BENCH_THREADS  max threads/node for intra-node sweeps (default 4)
//   DARRAY_BENCH_ELEMS    array elements per node (default 16384)
//   DARRAY_BENCH_SCALE    R-MAT scale for graph benches (default 12)
//   DARRAY_BENCH_LAT_NS   simulated one-way fabric latency (default 1000)
#pragma once

#include <cstdio>
#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/clock.hpp"
#include "core/context.hpp"
#include "obs/stats_registry.hpp"
#include "obs/timeseries.hpp"
#include "runtime/cluster.hpp"

namespace darray::bench {

inline uint64_t env_u64(const char* name, uint64_t def) {
  const char* e = std::getenv(name);
  return e ? std::strtoull(e, nullptr, 10) : def;
}

inline uint32_t max_nodes() { return static_cast<uint32_t>(env_u64("DARRAY_BENCH_NODES", 4)); }
inline uint32_t max_threads() {
  return static_cast<uint32_t>(env_u64("DARRAY_BENCH_THREADS", 4));
}
inline uint64_t elems_per_node() { return env_u64("DARRAY_BENCH_ELEMS", 16384); }
inline uint32_t graph_scale() { return static_cast<uint32_t>(env_u64("DARRAY_BENCH_SCALE", 12)); }

inline rt::ClusterConfig bench_cfg(uint32_t nodes) {
  rt::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.fabric_latency_ns = env_u64("DARRAY_BENCH_LAT_NS", 1000);  // ~2 µs RTT, as the paper
  cfg.cachelines_per_region = 512;
  // Before/after switch for the small-message engine (docs/perf.md): the
  // off-config reproduces the pre-coalescing wire behaviour exactly.
  cfg.coalesce_enabled = env_u64("DARRAY_BENCH_COALESCE", 1) != 0;
  return cfg;
}

// Runs `op(node, thread, i)` ops_per_thread times on every thread and returns
// aggregate millions of ops per second. Workers self-timestamp around their
// loop (span = max(end) - min(start)): a separate timer thread would park on
// the start barrier and, on an oversubscribed host, only wake after the
// workers already finished.
inline double measure_mops(rt::Cluster& cluster, uint32_t threads_per_node,
                           uint64_t ops_per_thread,
                           const std::function<void(rt::NodeId, uint32_t, uint64_t)>& op) {
  const uint32_t total = cluster.num_nodes() * threads_per_node;
  SenseBarrier barrier(total);
  std::vector<uint64_t> starts(total), ends(total);
  std::vector<std::thread> ts;
  uint32_t slot = 0;
  for (rt::NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (uint32_t t = 0; t < threads_per_node; ++t, ++slot) {
      ts.emplace_back([&, n, t, slot] {
        bind_thread(cluster, n);
        barrier.arrive_and_wait();
        starts[slot] = now_ns();
        for (uint64_t i = 0; i < ops_per_thread; ++i) op(n, t, i);
        ends[slot] = now_ns();
      });
    }
  }
  for (auto& t : ts) t.join();
  const uint64_t t0 = *std::min_element(starts.begin(), starts.end());
  const uint64_t t1 = *std::max_element(ends.begin(), ends.end());
  const double ops = static_cast<double>(total) * static_cast<double>(ops_per_thread);
  return ops / (static_cast<double>(t1 - t0) / 1e9) / 1e6;
}

// Average per-op latency in nanoseconds for a single-threaded-per-node loop.
inline double measure_avg_ns(rt::Cluster& cluster, uint64_t ops_per_thread,
                             const std::function<void(rt::NodeId, uint64_t)>& op) {
  const double mops = measure_mops(cluster, 1, ops_per_thread,
                                   [&](rt::NodeId n, uint32_t, uint64_t i) { op(n, i); });
  // total ops/s across nodes → per-node op rate → ns per op on one thread
  return 1e3 / (mops / static_cast<double>(cluster.num_nodes()));
}

// Exact q-quantile (q in [0, 1]) of raw latency samples: the sample of rank
// floor(q·(n−1)) in sorted order, or 0 when there are none.
inline uint64_t sample_percentile_ns(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  const auto k = samples.begin() +
                 static_cast<std::ptrdiff_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), k, samples.end());
  return *k;
}

// --- table printing ----------------------------------------------------------

inline void print_header(const std::string& title, const std::vector<std::string>& cols) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-12s", cols[0].c_str());
  for (size_t i = 1; i < cols.size(); ++i) std::printf("%14s", cols[i].c_str());
  std::printf("\n");
}

inline void print_row(uint64_t x, const std::vector<double>& vals, const char* fmt = "%14.2f") {
  std::printf("%-12llu", static_cast<unsigned long long>(x));
  for (double v : vals) std::printf(fmt, v);
  std::printf("\n");
  std::fflush(stdout);  // long sweeps: show each point as it lands
}

// --- machine-readable reports (--json) ---------------------------------------
// `<bench> --json` switches a harness into report mode: each recorded metric
// is repeated DARRAY_BENCH_REPS times (default 3) and the median and p99
// (max, at small rep counts) land in BENCH_<name>.json in the working
// directory, so before/after runs diff mechanically instead of by eyeball.

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

inline uint32_t bench_reps() { return static_cast<uint32_t>(env_u64("DARRAY_BENCH_REPS", 3)); }

// The host a report was measured on, so a comparison against a baseline can
// tell a slower runner from slower code: logical CPUs, the CPU model string,
// and calib_ns, the best of three timings of a fixed dependent-integer loop.
struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  double calib_ns = 0;
};

inline HostFingerprint host_fingerprint() {
  HostFingerprint h;
  h.nproc = std::thread::hardware_concurrency();
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* v = std::strchr(line, ':');
      if (!v) break;
      std::string model(v + 1);
      // Trim, and keep the string JSON-safe without an escaper.
      std::erase_if(model, [](char c) { return c == '"' || c == '\\' || c == '\n'; });
      const size_t first = model.find_first_not_of(' ');
      h.cpu_model = first == std::string::npos ? "unknown" : model.substr(first);
      break;
    }
    std::fclose(f);
  }
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t t0 = now_ns();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t i = 0; i < 10'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const double ns = static_cast<double>(now_ns() - t0);
    asm volatile("" : : "r"(x));  // keep the loop
    if (h.calib_ns == 0 || ns < h.calib_ns) h.calib_ns = ns;
  }
  return h;
}

class JsonReport {
 public:
  // `name` is the bench binary's short name; disabled reports swallow add()
  // calls so harness code stays unconditional.
  JsonReport(std::string name, bool enabled) : name_(std::move(name)), enabled_(enabled) {}

  // Records a metric measured `reps.size()` times. Returns the median.
  double add(const std::string& config, const std::string& metric, const std::string& unit,
             std::vector<double> reps) {
    std::sort(reps.begin(), reps.end());
    const double median = reps[reps.size() / 2];
    const double p99 = reps[static_cast<size_t>(
        static_cast<double>(reps.size() - 1) * 0.99 + 0.5)];
    if (enabled_) entries_.push_back({config, metric, unit, median, p99, std::move(reps)});
    return median;
  }

  // Runs fn() bench_reps() times and records the samples.
  double measure(const std::string& config, const std::string& metric,
                 const std::string& unit, const std::function<double()>& fn) {
    std::vector<double> reps;
    const uint32_t n = enabled_ ? bench_reps() : 1;
    reps.reserve(n);
    for (uint32_t i = 0; i < n; ++i) reps.push_back(fn());
    return add(config, metric, unit, std::move(reps));
  }

  // Attaches a StatsRegistry snapshot (typically cluster.stats() from the last
  // measured configuration) to the report under a "stats" block, so counter
  // regressions diff alongside the throughput numbers.
  void set_stats(obs::StatsSnapshot snap) {
    if (enabled_) stats_ = std::move(snap);
  }

  // Attaches the telemetry sampler's rings (cluster.timeseries()->collect())
  // from the last measured configuration under a "series" block: how the run
  // *unfolded*, not just where it ended. No-op when telemetry was off.
  void set_series(uint64_t sample_ns, std::vector<obs::TimeSeriesStore::Series> series) {
    if (!enabled_) return;
    series_sample_ns_ = sample_ns;
    series_ = std::move(series);
  }

  // Writes BENCH_<name>.json; returns false (with a message) on I/O failure.
  bool write() const {
    if (!enabled_) return true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "json report: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"reps\": %u,\n", name_.c_str(),
                 bench_reps());
    const HostFingerprint host = host_fingerprint();
    std::fprintf(f,
                 "  \"host\": {\"nproc\": %u, \"cpu_model\": \"%s\", \"calib_ns\": %.0f},\n",
                 host.nproc, host.cpu_model.c_str(), host.calib_ns);
    std::fprintf(f, "  \"stats\": %s,\n", stats_.to_json("  ").c_str());
    if (!series_.empty()) {
      std::fprintf(f, "  \"series\": {\"sample_ns\": %llu, \"metrics\": [\n",
                   static_cast<unsigned long long>(series_sample_ns_));
      for (size_t i = 0; i < series_.size(); ++i) {
        const auto& s = series_[i];
        std::fprintf(f, "    {\"metric\": \"%s\", \"rate\": %s, \"points\": [",
                     s.name.c_str(), s.rate ? "true" : "false");
        for (size_t j = 0; j < s.points.size(); ++j)
          std::fprintf(f, "%s[%llu, %llu]", j ? ", " : "",
                       static_cast<unsigned long long>(s.points[j].t_ns),
                       static_cast<unsigned long long>(s.points[j].value));
        std::fprintf(f, "]}%s\n", i + 1 < series_.size() ? "," : "");
      }
      std::fprintf(f, "  ]},\n");
    }
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"metric\": \"%s\", \"unit\": \"%s\", "
                   "\"median\": %.4f, \"p99\": %.4f, \"samples\": [",
                   e.config.c_str(), e.metric.c_str(), e.unit.c_str(), e.median, e.p99);
      for (size_t j = 0; j < e.reps.size(); ++j)
        std::fprintf(f, "%s%.4f", j ? ", " : "", e.reps[j]);
      std::fprintf(f, "]}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("json report: wrote %s (%zu results)\n", path.c_str(), entries_.size());
    return true;
  }

  bool enabled() const { return enabled_; }

 private:
  struct Entry {
    std::string config, metric, unit;
    double median, p99;
    std::vector<double> reps;
  };
  std::string name_;
  bool enabled_;
  std::vector<Entry> entries_;
  obs::StatsSnapshot stats_;
  uint64_t series_sample_ns_ = 0;
  std::vector<obs::TimeSeriesStore::Series> series_;
};

// The paper's scalability ratio: speedup at the largest point divided by the
// resource factor, i.e. (T_max / T_1) / (x_max / x_1).
inline double scalability_ratio(const std::vector<uint64_t>& xs,
                                const std::vector<double>& ys) {
  if (xs.size() < 2 || ys.front() <= 0) return 0;
  return (ys.back() / ys.front()) / (static_cast<double>(xs.back()) / static_cast<double>(xs.front()));
}

}  // namespace darray::bench
