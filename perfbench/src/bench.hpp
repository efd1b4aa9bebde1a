// Shared plumbing for the repository benchmark (perfbench): input
// generators, latency samples, the span log of the traced run, the hang
// guard, and the fixed metric lists every run prints.
//
// The benchmark drives the system only through its public functions
// (rt::Cluster, DArray<T>, graph::pagerank_darray, kvs::DKvs,
// serve::KvsService, darray::Client). Every input -- index streams, graphs,
// key sequences, values -- comes from the generators below, seeded by the
// --seed argument, so the inputs do not change when the system's own
// generators do.
#pragma once

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/darray.hpp"
#include "runtime/cluster.hpp"

namespace perfbench {

using darray::rt::Cluster;
using darray::rt::ClusterConfig;
using darray::rt::NodeId;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- topology -----------------------------------------------------------------
// Every workload runs 2 simulated nodes with one application (load) thread
// each, over a fabric with 1 us one-way latency. Each node's runtime, Tx, Rx
// and dispatcher threads belong to the system, not to the load.
inline constexpr uint32_t kNodes = 2;
inline constexpr uint64_t kFabricLatencyNs = 1000;
inline constexpr uint32_t kCachelinesPerRegion = 512;

inline ClusterConfig cluster_config() {
  ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.runtime_threads_per_node = 1;
  cfg.fabric_latency_ns = kFabricLatencyNs;
  cfg.cachelines_per_region = kCachelinesPerRegion;
  return cfg;
}

// Bytes one node can cache for an array of `elem_bytes`-sized elements: one
// cache region per runtime thread, one chunk per cacheline.
inline uint64_t cache_bytes_per_node(const ClusterConfig& cfg, uint32_t elem_bytes) {
  return uint64_t{cfg.runtime_threads_per_node} * cfg.cachelines_per_region *
         cfg.chunk_bytes(elem_bytes);
}

// --- input generators -----------------------------------------------------------

inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t z = seed;
    for (auto& w : s_) w = mix64(z++ * 0x9e3779b97f4a7c15ull);
  }
  uint64_t next() {
    const uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  uint64_t below(uint64_t bound) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// YCSB's zipfian generator (Gray et al.): item 0 is the hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0, zeta2 = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    for (uint64_t i = 1; i <= 2; ++i) zeta2 += 1.0 / std::pow(static_cast<double>(i), theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  uint64_t next(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto v = static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(v, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// R-MAT edge list (a, b, c as given, d = 1 - a - b - c) with vertex ids
// relabelled by a seeded permutation, so hot vertices spread over both
// nodes' partitions.
std::vector<std::pair<uint32_t, uint32_t>> rmat_edges(uint32_t scale, uint32_t edge_factor,
                                                      double a, double b, double c,
                                                      uint64_t seed);

// --- latency samples ------------------------------------------------------------
// A fixed-capacity uniform reservoir of call latencies in nanoseconds. Fixed
// capacity keeps the benchmark's own memory independent of how fast the
// system runs (peak_rss_mb is a metric); exact samples keep percentiles
// unquantized.
class Samples {
 public:
  explicit Samples(uint64_t seed, size_t cap = size_t{1} << 18) : rng_(seed), cap_(cap) {}
  void add(uint64_t ns) {
    const uint32_t v = static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
    ++seen_;
    if (vals_.size() < cap_) {
      vals_.push_back(v);
    } else if (const uint64_t j = rng_.below(seen_); j < cap_) {
      vals_[j] = v;
    }
  }
  void clear() {
    seen_ = 0;
    vals_.clear();
  }
  uint64_t seen() const { return seen_; }
  const std::vector<uint32_t>& values() const { return vals_; }

 private:
  Rng rng_;
  size_t cap_;
  uint64_t seen_ = 0;
  std::vector<uint32_t> vals_;
};

// Percentile q in [0, 1] over several reservoirs, each sample weighted by the
// calls it stands for. Returns microseconds; 0 when there are no samples.
double percentile_us(const std::vector<const Samples*>& parts, double q);

// The tail percentile reported: p90, or lower when fewer than ten calls lie
// beyond it. p99 was not steady on a 4-vCPU virtual machine: it is set by
// rare millisecond stalls whose rate follows the host's CPU steal, and
// across five rand_rw runs its interquartile range was about half its
// median, with or without the one-CPU restriction (main.cpp).
inline constexpr double kTailQuantile = 0.90;
inline double tail_quantile(uint64_t n) {
  if (n < 20) return 0.5;
  return std::min(kTailQuantile, 1.0 - 10.0 / static_cast<double>(n));
}

// --- segments and windows -----------------------------------------------------------
// An untraced run sets up once per segment (kSegments unless a workload
// sets its own count) and measures --seconds / segments on each set-up, so
// a run samples several thread placements and cluster states instead of
// one. Each segment is cut into kWindowsPerSegment windows (seq_scan: into
// its passes). Throughput and latency percentiles are computed per window
// and reported as the interquartile mean over all windows of the run: the
// mean of the middle half, which a burst of outside load in one window, or
// one slow placement, moves little. pagerank runs cycles of calls on fresh
// clusters instead (pagerank.cpp).
inline constexpr int kSegments = 5;
inline constexpr size_t kWindowsPerSegment = 4;

// Mean of the values left after dropping the lowest and the highest quarter.
double iq_mean(std::vector<double> v);

// One thread's calls in one segment, by the window in which each ended.
class WindowTally {
 public:
  explicit WindowTally(uint64_t seed) : ops_(kWindowsPerSegment, 0) {
    for (size_t w = 0; w < kWindowsPerSegment; ++w)
      lat_.emplace_back(mix64(seed) + w, size_t{1} << 15);
  }
  // A call that ended `since_start` ns into the segment and took `ns`.
  // Calls ending after the last window (draining past the deadline) are not
  // kept.
  void add(uint64_t since_start, uint64_t window_ns, uint64_t ns) {
    const uint64_t w = since_start / window_ns;
    if (w >= kWindowsPerSegment) return;
    ++ops_[w];
    lat_[w].add(ns);
  }
  uint64_t ops(size_t w) const { return ops_[w]; }
  const Samples& lat(size_t w) const { return lat_[w]; }

 private:
  std::vector<uint64_t> ops_;
  std::vector<Samples> lat_;
};

// Per-window values of a whole run: calls per second (millions), and the
// p50 and tail percentile of call latency (us). `tail_q` is the smallest
// tail percentile used in any window.
struct Windows {
  std::vector<double> mops, p50_us, tail_us;
  double tail_q = 1;

  // Adds one segment's windows, each `window_s` long.
  void add(const std::vector<const WindowTally*>& threads, double window_s);
  // Adds one window measured by the caller (seq_scan: one pass).
  void add(double window_mops, double window_p50_us, double window_tail_us, double q) {
    mops.push_back(window_mops);
    p50_us.push_back(window_p50_us);
    tail_us.push_back(window_tail_us);
    tail_q = std::min(tail_q, q);
  }
};

// The per-thread tallies of one closed-loop run of the load threads. A
// Tally has the fields `errors`, `t_start`, `t_end` (ns) and `win`, and a
// member ops() counting its completed calls.
template <typename Tally>
struct LoopResult {
  std::vector<std::unique_ptr<Tally>> threads;

  uint64_t sum(uint64_t Tally::*field) const {
    uint64_t s = 0;
    for (const auto& t : threads) s += (*t).*field;
    return s;
  }
  uint64_t ops() const {
    uint64_t s = 0;
    for (const auto& t : threads) s += t->ops();
    return s;
  }
  // Calls per second (millions), from the first thread's start to the last
  // thread's end.
  double mops() const {
    uint64_t t0 = UINT64_MAX, t1 = 0;
    for (const auto& t : threads) {
      t0 = std::min(t0, t->t_start);
      t1 = std::max(t1, t->t_end);
    }
    return static_cast<double>(ops()) / (static_cast<double>(t1 - t0) / 1e3);
  }
  std::vector<const Samples*> samples(Samples Tally::*field) const {
    std::vector<const Samples*> v;
    for (const auto& t : threads) v.push_back(&((*t).*field));
    return v;
  }
  std::vector<const WindowTally*> windows() const {
    std::vector<const WindowTally*> v;
    for (const auto& t : threads) v.push_back(&t->win);
    return v;
  }
};

// --- spans of the traced run ------------------------------------------------------
// One span per call into a layer's public function, recorded by the
// benchmark around the call (the system's own tracing stays off). Spans of
// one operation share `op`. Kept in memory; written out at the end.
enum class SpanKind : uint8_t {
  kClusterCtor,  // runtime: Cluster construction
  kArrayCreate,  // runtime: DArray / DKvs / KvsService creation
  kGet,          // core: DArray::get
  kSet,          // core: DArray::set
  kApply,        // core: DArray::apply
  kPagerank,     // graph: graph::pagerank_darray
  kClientGet,    // serve: Client get, issue to response
  kClientPut,    // serve: Client put, issue to response
  kEngineGet,    // kvs: DKvs::get called directly
  kEnginePut,    // kvs: DKvs::put called directly
  kNumKinds,
};
const char* span_kind_name(SpanKind k);
const char* span_layer_name(SpanKind k);

struct Span {
  uint64_t op;
  uint64_t t0_ns;
  uint64_t dur_ns;
  SpanKind kind;
  bool hit;  // range_cached(i, 1) probe just before the span opened
};

// Per-thread span log. The first `cap` spans are kept verbatim for the span
// file; every span's duration also lands in a reservoir per (kind, hit), so
// latency percentiles cover the whole traced region, not just its start.
class SpanLog {
 public:
  explicit SpanLog(uint64_t seed, size_t cap = size_t{1} << 17) : cap_(cap) {
    spans_.reserve(cap);
    for (size_t i = 0; i < 2 * kKinds; ++i) lat_.emplace_back(mix64(seed) + i, size_t{1} << 15);
  }
  void add(uint64_t op, SpanKind k, uint64_t t0, uint64_t t1, bool hit = false) {
    if (spans_.size() < cap_)
      spans_.push_back({op, t0, t1 - t0, k, hit});
    else
      ++dropped_;
    lat_[slot(k, hit)].add(t1 - t0);
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }
  const Samples& latency(SpanKind k, bool hit) const { return lat_[slot(k, hit)]; }

 private:
  static constexpr size_t kKinds = static_cast<size_t>(SpanKind::kNumKinds);
  static size_t slot(SpanKind k, bool hit) { return static_cast<size_t>(k) * 2 + (hit ? 1 : 0); }
  size_t cap_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::vector<Samples> lat_;
};

// Percentile q of one (kind, hit) class over several threads' logs, in us.
double span_percentile_us(const std::vector<const SpanLog*>& logs, SpanKind k, bool hit,
                          double q);
uint64_t span_count(const std::vector<const SpanLog*>& logs, SpanKind k, bool hit);

// Operation ids shared by every thread's spans.
inline std::atomic<uint64_t>& op_ids() {
  static std::atomic<uint64_t> next{1};
  return next;
}

// --- run options and results ------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value;
  std::string unit;
};

// What one workload run reports. `metrics` holds the end-to-end metrics in
// an untraced run and the per-layer metrics in a traced one; `details` are
// extra human-readable lines (workload-specific names, sample counts).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // wrong or failed calls; the run is correct when 0
  std::map<std::string, Metric> metrics;
  std::vector<std::string> details;
  std::vector<std::string> sizes;  // run-header lines: array vs cache bytes

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void detail(const std::string& line) { details.push_back(line); }
};

// Names and units of every metric a run prints: end-to-end in untraced runs,
// per-layer in traced runs. Every run prints every name of its list, with 0
// where the workload makes no call of that kind (README.md).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// --- hang guard -----------------------------------------------------------------
// A run that passes its deadline prints the workload, seed, current phase and
// a Cluster::stats() snapshot of the watched cluster, then exits nonzero.
namespace guard {
void set_phase(const char* phase);
void watch(Cluster* cluster);  // nullptr stops watching
}  // namespace guard

// Holds a cluster and keeps the hang guard pointed at it while it lives.
class WatchedCluster {
 public:
  WatchedCluster() : cluster_(std::make_unique<Cluster>(cluster_config())) {
    guard::watch(cluster_.get());
  }
  // Hands the cluster's freed memory back to the OS, so each set-up's peak
  // resident memory does not depend on what earlier ones left behind.
  ~WatchedCluster() {
    guard::watch(nullptr);
    cluster_.reset();
    malloc_trim(0);
  }
  WatchedCluster(const WatchedCluster&) = delete;
  WatchedCluster& operator=(const WatchedCluster&) = delete;
  Cluster& operator*() { return *cluster_; }
  Cluster* operator->() { return cluster_.get(); }

 private:
  std::unique_ptr<Cluster> cluster_;
};

// --- CPUs -------------------------------------------------------------------------
// Every workload runs every thread of the process on one CPU (main.cpp), and
// also one extra segment on every CPU, printed but not a metric, so a change
// can be seen on both placements.

// Restricts the calling thread, and every thread it creates later, to the
// first CPU it may use, and remembers the CPUs it could use before. Returns
// the CPU count used (1) or -1.
int pin_to_one_cpu();

// While alive, lets the calling thread, and every thread it creates, use
// every CPU the process could use before pin_to_one_cpu().
class AllCpus {
 public:
  AllCpus();
  ~AllCpus();
  AllCpus(const AllCpus&) = delete;
  AllCpus& operator=(const AllCpus&) = delete;
  int cpus() const;  // CPUs the calling thread may use now

 private:
  cpu_set_t saved_;
};

// --- helpers ----------------------------------------------------------------------

// Runs `count` untraced segments numbered from `first`. Each sets up a fresh
// fixture with setup(segment), appending the set-up's seconds to `setup_s`
// when given, runs timed(fixture) as the timed region, tears the fixture down
// and hands the timed region's result to take(result).
template <typename Setup, typename Timed, typename Take>
void run_segments(int first, int count, std::vector<double>* setup_s, const Setup& setup,
                  const Timed& timed, const Take& take) {
  for (int seg = first; seg < first + count; ++seg) {
    guard::set_phase("setup");
    const uint64_t t0 = now_ns();
    auto f = setup(seg);
    if (setup_s) setup_s->push_back(static_cast<double>(now_ns() - t0) / 1e9);
    guard::set_phase("timed");
    const auto r = timed(*f);
    guard::set_phase("teardown");
    f.reset();
    take(r);
  }
}

// Sets the end-to-end metrics of an untraced run: setup_s as the median of
// its set-ups, peak_rss_mb as of now, and the interquartile means of the
// per-window throughput and latency percentiles.
void set_end_to_end(Outcome& out, const std::vector<double>& setup_s, const Windows& win);

// Runs fn(node) on one application thread per node, each bound to its node.
inline void on_app_threads(Cluster& cluster, const std::function<void(NodeId)>& fn) {
  std::vector<std::thread> ts;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n)
    ts.emplace_back([&cluster, &fn, n] {
      darray::bind_thread(cluster, n);
      fn(n);
    });
  for (auto& t : ts) t.join();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Fills the per-layer counter metrics shared by the DArray workloads (core
// hit ratio, runtime miss path and Operate, runtime/net thread duty, net,
// rdma) from a stats delta over the timed region of `api_ops` DArray calls.
void counter_metrics(Outcome& out, const darray::obs::StatsSnapshot& delta, double api_ops);

// Adds `delta` into `total`, counter by counter (for regions that span
// several clusters).
void accumulate(darray::obs::StatsSnapshot& total, const darray::obs::StatsSnapshot& delta);

// Adds the hit/miss latency metrics of the core layer from traced spans.
void core_span_metrics(Outcome& out, const std::vector<const SpanLog*>& logs);

// Writes every kept span as CSV (op,layer,kind,t0_ns,dur_ns,hit) to
// .bench_build/spans/<workload>.csv under the working directory and notes
// the file (or the failure) in `out`.
void write_spans(Outcome& out, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

// " v0 v1 ..." with four significant digits, for detail lines.
std::string join(const std::vector<double>& v);

Outcome run_seq_scan(const Options& o);
Outcome run_rand_rw(const Options& o);
Outcome run_pagerank(const Options& o);
Outcome run_kvs_zipf(const Options& o);

}  // namespace perfbench
