// pagerank: graph::pagerank_darray with the pinned fast path (use_pin) on a
// seeded R-MAT graph (a = .57, b = .19, c = .19), a fixed number of
// iterations per call. This is the paper's Operate path at scale: skewed
// remote applies fold into combine buffers and the gather reads force the
// flushes. Calls run in cycles over 8 seeded graphs, each cycle on a fresh
// cluster, and every call's ranks are checked against
// graph::pagerank_reference on the same graph.
#include <cmath>

#include "bench.hpp"
#include "graph/csr.hpp"
#include "graph/pagerank.hpp"
#include "graph/reference.hpp"

namespace perfbench {
namespace {

namespace graph = darray::graph;

constexpr uint32_t kScale = 14;  // 16384 vertices
constexpr uint32_t kEdgeFactor = 4;
constexpr int kIterations = 5;
// Calls cycle through this many seeded graphs, so one graph's structure
// weighs little in a run's result.
constexpr uint64_t kGraphs = 8;
// The timed cycles are cut into windows of about this many consecutive
// cycles, and the end-to-end figures are interquartile means over the
// windows, so a burst of outside load moves little. In each window, call
// latency is summarised per graph and averaged over the graphs: a
// percentile over all calls would sit on the boundary between the slowest
// graphs' modes and jump with the seed. The tail is p80 (the second slowest
// of a graph's 5 calls), fixed so runs of different speed report the same
// percentile.
constexpr uint64_t kCyclesPerWindow = 5;
constexpr double kTailQuantilePagerank = 0.80;
// Ranks may differ from the serial reference only by floating-point
// reassociation in the combine buffers; a lost or doubled contribution is
// orders of magnitude larger.
constexpr double kRelTolerance = 1e-9;
// A set-up (one cluster and one call) takes ~0.1 s, so take the median of
// more of them than the other workloads do.
constexpr int kSetupReps = 15;

struct Input {
  graph::Csr g;
  std::vector<double> reference;
  uint64_t api_ops_per_call = 0;  // DArray get/set/apply calls per pagerank_darray
};

Input make_input(uint64_t seed) {
  Input in;
  in.g = graph::Csr::from_edges(uint64_t{1} << kScale,
                                rmat_edges(kScale, kEdgeFactor, 0.57, 0.19, 0.19, seed));
  in.reference = graph::pagerank_reference(in.g, kIterations);
  // pagerank_darray: one set per vertex to initialise; per iteration one get
  // per vertex with out-edges plus one apply per edge (scatter), and one get
  // and two sets per vertex (gather); one get per vertex to collect.
  const uint64_t n = in.g.n_vertices();
  uint64_t with_edges = 0;
  for (uint64_t v = 0; v < n; ++v) with_edges += in.g.out_degree(static_cast<uint32_t>(v)) > 0;
  in.api_ops_per_call = 2 * n + kIterations * (with_edges + in.g.n_edges() + 3 * n);
  return in;
}

graph::GraphRunOptions run_options() {
  graph::GraphRunOptions opt;
  opt.iterations = kIterations;
  opt.use_pin = true;
  opt.threads_per_node = 1;
  return opt;
}

bool ranks_match(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t v = 0; v < got.size(); ++v)
    if (!(std::fabs(got[v] - want[v]) <= kRelTolerance * std::fabs(want[v]) + 1e-15))
      return false;
  return true;
}

struct CallResult {
  std::vector<double> call_s;  // wall time of each pagerank_darray call
  std::vector<double> call_mops;  // DArray calls per second of each call
  uint64_t failed = 0;
  darray::obs::StatsSnapshot counters;  // traced: summed over the cycles' clusters
  double total_s() const {
    double s = 0;
    for (double c : call_s) s += c;
    return s;
  }
};

// A cycle: a fresh cluster, then one call on each of the first `graphs`
// graphs in order. Cluster construction is outside the calls' times; eight
// calls leave the cache regions under their eviction watermark, so every
// call of a cycle starts from the same cache state. With `log`, spans the
// construction and each call and adds the cycle's counters to `r.counters`.
void one_cycle(const std::vector<Input>& inputs, size_t graphs, CallResult& r, SpanLog* log) {
  const uint64_t op = op_ids().fetch_add(1);
  uint64_t t0 = now_ns();
  WatchedCluster cluster;
  if (log) log->add(op, SpanKind::kClusterCtor, t0, now_ns());
  if (log) cluster->mark_stats_baseline("cycle");
  for (size_t k = 0; k < graphs; ++k) {
    const Input& in = inputs[k];
    t0 = now_ns();
    const std::vector<double> ranks = graph::pagerank_darray(*cluster, in.g, run_options());
    const uint64_t t1 = now_ns();
    if (log) log->add(op, SpanKind::kPagerank, t0, t1);
    r.call_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    r.call_mops.push_back(static_cast<double>(in.api_ops_per_call) / (r.call_s.back() * 1e6));
    r.failed += !ranks_match(ranks, in.reference);
  }
  if (log) accumulate(r.counters, cluster->stats_delta_since("cycle"));
}

// Whole cycles over every graph until `seconds` have passed, so call c ran
// on graph c % kGraphs.
CallResult run_cycles(const std::vector<Input>& inputs, double seconds, SpanLog* log) {
  CallResult r;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  do one_cycle(inputs, kGraphs, r, log);
  while (now_ns() < deadline);
  return r;
}

}  // namespace

Outcome run_pagerank(const Options& o) {
  Outcome out;
  guard::set_phase("inputs");
  std::vector<Input> inputs;
  for (uint64_t k = 0; k < kGraphs; ++k) inputs.push_back(make_input(mix64(o.seed) + k));
  const uint64_t n = inputs[0].g.n_vertices();
  const ClusterConfig cfg = cluster_config();
  out.sizes.push_back(fmt(
      "pagerank: %llu R-MAT graphs of scale %u, %llu vertices, %llu edges, %d iterations; "
      "rank arrays 2 x %llu B; cache per node %llu B; aggregate cache %llu B",
      static_cast<unsigned long long>(kGraphs), kScale, static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(inputs[0].g.n_edges()), kIterations,
      static_cast<unsigned long long>(n * 8),
      static_cast<unsigned long long>(cache_bytes_per_node(cfg, 8)),
      static_cast<unsigned long long>(kNodes * cache_bytes_per_node(cfg, 8))));

  if (!o.trace) {
    // A set-up is one cluster plus one checked warm-up call.
    guard::set_phase("setup");
    std::vector<double> setup_s;
    CallResult warm;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const uint64_t t0 = now_ns();
      one_cycle(inputs, 1, warm, nullptr);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    guard::set_phase("timed");
    const CallResult r = run_cycles(inputs, o.seconds, nullptr);
    const auto calls = static_cast<uint64_t>(r.call_s.size());
    const uint64_t cycles = calls / kGraphs;
    const uint64_t windows = std::max<uint64_t>(1, cycles / kCyclesPerWindow);
    Windows win;
    for (uint64_t w = 0; w < windows; ++w) {
      const uint64_t c0 = w * cycles / windows, c1 = (w + 1) * cycles / windows;
      double ops = 0, secs = 0, p50 = 0, tail = 0;
      for (uint64_t k = 0; k < kGraphs; ++k) {
        Samples lat(mix64(o.seed) + k, c1 - c0);
        for (uint64_t c = c0; c < c1; ++c) {
          const double s = r.call_s[c * kGraphs + k];
          lat.add(static_cast<uint64_t>(s * 1e9));
          ops += static_cast<double>(inputs[k].api_ops_per_call);
          secs += s;
        }
        p50 += percentile_us({&lat}, 0.5) / kGraphs;
        tail += percentile_us({&lat}, kTailQuantilePagerank) / kGraphs;
      }
      win.add(ops / secs / 1e6, p50, tail, kTailQuantilePagerank);
    }
    out.attempted = calls + kSetupReps;
    out.failed = r.failed + warm.failed;
    set_end_to_end(out, setup_s, win);
    out.detail(fmt("pagerank_s %.5f s (median of %llu calls); %llu windows; p50_us and "
                   "tail_us (p%.0f) are means over the %llu graphs of each graph's percentile "
                   "per window; %llu DArray calls per pagerank_darray (first graph)",
                   median(r.call_s), static_cast<unsigned long long>(calls),
                   static_cast<unsigned long long>(windows), kTailQuantilePagerank * 100,
                   static_cast<unsigned long long>(kGraphs),
                   static_cast<unsigned long long>(inputs[0].api_ops_per_call)));
    guard::set_phase("unpinned");
    const AllCpus all;
    CallResult u;
    one_cycle(inputs, kGraphs, u, nullptr);
    out.attempted += u.call_s.size();
    out.failed += u.failed;
    out.detail(fmt("unpinned cycle on %d CPUs: %.4f Mops/s (interquartile mean of its %zu "
                   "calls; not a metric)",
                   all.cpus(), iq_mean(u.call_mops), u.call_s.size()));
    return out;
  }

  guard::set_phase("setup");
  SpanLog log(mix64(o.seed) + 99);
  CallResult warm;
  one_cycle(inputs, 1, warm, &log);
  guard::set_phase("untraced");
  const CallResult u = run_cycles(inputs, o.seconds * 0.4, nullptr);
  guard::set_phase("traced");
  const CallResult t = run_cycles(inputs, o.seconds * 0.4, &log);
  const double calls = static_cast<double>(t.call_s.size());
  out.attempted = 1 + u.call_s.size() + t.call_s.size();
  out.failed = warm.failed + u.failed + t.failed;
  double api_ops = 0, edges = 0;
  for (size_t c = 0; c < t.call_s.size(); ++c) {
    api_ops += static_cast<double>(inputs[c % kGraphs].api_ops_per_call);
    edges += static_cast<double>(inputs[c % kGraphs].g.n_edges());
  }
  counter_metrics(out, t.counters, api_ops);
  const double flushes = static_cast<double>(t.counters.value_or("runtime.combine_flushes"));
  out.set("graph.applies_per_flush", flushes > 0 ? kIterations * edges / flushes : 0, "ratio");
  const double u_call = u.total_s() / static_cast<double>(u.call_s.size());
  const double t_call = t.total_s() / calls;
  out.set("obs.trace_overhead", t_call / u_call, "ratio");
  out.detail(fmt("untraced %.5f s per call, traced %.5f s per call", u_call, t_call));
  write_spans(out, "pagerank", {&log});
  return out;
}

}  // namespace perfbench
