// seq_scan: every app thread reads every element of a DArray<uint64_t>
// (read phase), then applies +1 with a registered add to every element
// (apply phase), with a barrier between phases; each phase sweeps the array
// kSweeps times. Each thread starts at its
// own node's partition and wraps around, so the two nodes never walk the
// same chunk in lockstep. The array fits each node's cache, so nearly every
// access takes the core fast path and the runtime only turns each chunk
// over (Operated <-> Shared) once per phase.
#include <barrier>

#include "bench.hpp"

namespace perfbench {
namespace {

using darray::DArray;
using darray::OpHandle;

// 2 MiB of uint64_t. Each node caches only the remote half, 1 MiB = 256
// chunks, which fills half of its 512-line region: under the 30 % free
// watermark, so nothing is ever evicted.
constexpr uint64_t kElems = uint64_t{256} << 10;
// Each phase sweeps the array this many times. The first sweep of a phase
// pays every chunk's turnover; the rest run on the fast path, so the fast
// path, not the miss path, is most of the timed work.
constexpr uint64_t kSweeps = 8;
// Untraced runs time one call in 61: a stride prime to the 512-element chunk
// samples chunk-first accesses (where turnovers happen) at their true rate.
constexpr uint64_t kSampleStride = 61;

void add_u64(uint64_t& acc, uint64_t v) { acc += v; }

// Initial element value: 40 random bits, so the applies never wrap it.
uint64_t base_value(uint64_t seed, uint64_t i) { return mix64(seed * 0x100000001b3ull ^ i) >> 24; }

struct Fixture {
  WatchedCluster cluster;
  DArray<uint64_t> arr;
  OpHandle<uint64_t> add;
  uint64_t passes = 0;  // completed apply passes, warm-up included
};

struct ThreadTally {
  explicit ThreadTally(uint64_t seed) : lat(seed), log(seed + 1) {}
  Samples lat;  // sampled call latencies (untraced)
  SpanLog log;  // every call (traced)
  uint64_t reads = 0, applies = 0, errors = 0;
};

struct PassResult {
  double read_s = 0, apply_s = 0;
  std::vector<std::unique_ptr<ThreadTally>> threads;

  uint64_t sum(uint64_t ThreadTally::*field) const {
    uint64_t s = 0;
    for (const auto& t : threads) s += (*t).*field;
    return s;
  }
  double mops() const {
    return static_cast<double>(sum(&ThreadTally::reads) + sum(&ThreadTally::applies)) /
           (read_s + apply_s) / 1e6;
  }
};

// Runs read+apply passes on both nodes until `max_passes` passes or the
// deadline, whichever comes first (checked at the end of each pass). With
// `passes`, adds each pass to it as one window: calls per second and the
// sampled calls' percentiles.
PassResult run_passes(Fixture& f, const Options& o, double seconds, uint64_t max_passes,
                      bool traced, Windows* passes = nullptr) {
  PassResult r;
  for (uint32_t n = 0; n < kNodes; ++n)
    r.threads.push_back(std::make_unique<ThreadTally>(mix64(o.seed) + 16 * n));
  int64_t phase = -1;  // -1: start; then even = read phase, odd = apply phase
  uint64_t last = 0, deadline = 0, done = 0;
  double pass_read_s = 0;
  bool stop = false;
  // Runs on one thread while the other waits at the barrier; its own time
  // is kept out of the phase times.
  auto on_phase_end = [&]() noexcept {
    const uint64_t t = now_ns();
    if (phase < 0) {
      deadline = t + static_cast<uint64_t>(seconds * 1e9);
    } else if (phase % 2 == 0) {
      pass_read_s = static_cast<double>(t - last) / 1e9;
      r.read_s += pass_read_s;
    } else {
      const double apply_s = static_cast<double>(t - last) / 1e9;
      r.apply_s += apply_s;
      ++f.passes;
      stop = ++done >= max_passes || t >= deadline;
      if (passes) {
        const double pass_s = pass_read_s + apply_s;
        std::vector<const Samples*> lat;
        uint64_t sampled = 0;
        for (const auto& th : r.threads) {
          lat.push_back(&th->lat);
          sampled += th->lat.seen();
        }
        const double tail_q = tail_quantile(sampled);
        passes->add(2.0 * kNodes * kSweeps * kElems / pass_s / 1e6, percentile_us(lat, 0.5),
                    percentile_us(lat, tail_q), tail_q);
        for (const auto& th : r.threads) th->lat.clear();
      }
    }
    last = now_ns();
    ++phase;
  };
  std::barrier bar(kNodes, on_phase_end);
  const uint64_t chunk = f.cluster->config().chunk_elems;

  on_app_threads(*f.cluster, [&](NodeId n) {
    ThreadTally& tt = *r.threads[n];
    const uint64_t start = f.arr.local_begin(n);
    uint64_t op = uint64_t{n + 1} << 48;
    bar.arrive_and_wait();
    uint64_t since_sample = 0;
    auto sample_now = [&] {
      if (++since_sample < kSampleStride) return false;
      since_sample = 0;
      return true;
    };
    for (;;) {
      const uint64_t expect_add = kNodes * kSweeps * f.passes;
      for (uint64_t sweep = 0; sweep < kSweeps; ++sweep) {
        uint64_t i = start;
        for (uint64_t k = 0; k < kElems; ++k, i = i + 1 == kElems ? 0 : i + 1) {
          uint64_t v;
          if (traced) {
            const bool hit = f.arr.range_cached(i, 1);
            const uint64_t t0 = now_ns();
            v = f.arr.get(i);
            tt.log.add(++op, SpanKind::kGet, t0, now_ns(), hit);
          } else if (sample_now()) {
            const uint64_t t0 = now_ns();
            v = f.arr.get(i);
            tt.lat.add(now_ns() - t0);
          } else {
            v = f.arr.get(i);
          }
          tt.errors += v != base_value(o.seed, i) + expect_add;
        }
      }
      tt.reads += kSweeps * kElems;
      bar.arrive_and_wait();
      for (uint64_t sweep = 0; sweep < kSweeps; ++sweep) {
        uint64_t i = start;
        for (uint64_t k = 0; k < kElems; ++k, i = i + 1 == kElems ? 0 : i + 1) {
          if (traced) {
            // range_cached cannot see Operate permission, so an apply counts
            // as warm unless it is the phase's first touch of its chunk.
            const bool warm = sweep != 0 || (k != 0 && i % chunk != 0);
            const uint64_t t0 = now_ns();
            f.arr.apply(i, f.add, 1);
            tt.log.add(++op, SpanKind::kApply, t0, now_ns(), warm);
          } else if (sample_now()) {
            const uint64_t t0 = now_ns();
            f.arr.apply(i, f.add, 1);
            tt.lat.add(now_ns() - t0);
          } else {
            f.arr.apply(i, f.add, 1);
          }
        }
      }
      tt.applies += kSweeps * kElems;
      bar.arrive_and_wait();
      if (stop) break;
    }
  });
  return r;
}

// Cluster, array, preload by each home node, and one warm-up pass.
std::unique_ptr<Fixture> setup(const Options& o, SpanLog* log) {
  const uint64_t op = op_ids().fetch_add(1);
  uint64_t t0 = now_ns();
  auto f = std::make_unique<Fixture>();
  if (log) log->add(op, SpanKind::kClusterCtor, t0, now_ns());
  t0 = now_ns();
  f->arr = DArray<uint64_t>::create(*f->cluster, kElems);
  f->add = f->arr.register_op(&add_u64, 0);
  if (log) log->add(op, SpanKind::kArrayCreate, t0, now_ns());
  on_app_threads(*f->cluster, [&](NodeId n) {
    for (uint64_t i = f->arr.local_begin(n); i < f->arr.local_end(n); ++i)
      f->arr.set(i, base_value(o.seed, i));
  });
  run_passes(*f, o, 1e9, 1, false);
  return f;
}

}  // namespace

Outcome run_seq_scan(const Options& o) {
  Outcome out;
  const ClusterConfig cfg = cluster_config();
  out.sizes.push_back(fmt(
      "seq_scan: array %llu B (%llu x 8 B); remote half per node %llu B; cache per node "
      "%llu B; aggregate cache %llu B",
      static_cast<unsigned long long>(kElems * 8), static_cast<unsigned long long>(kElems),
      static_cast<unsigned long long>(kElems * 8 / kNodes),
      static_cast<unsigned long long>(cache_bytes_per_node(cfg, 8)),
      static_cast<unsigned long long>(kNodes * cache_bytes_per_node(cfg, 8))));

  if (!o.trace) {
    const double seg_s = o.seconds / kSegments;
    std::vector<double> setup_s;
    Windows passes;
    uint64_t reads = 0, applies = 0;
    double read_s = 0, apply_s = 0;
    auto set_up = [&o](int) { return setup(o, nullptr); };
    auto check = [&out](const PassResult& r) {
      out.attempted += r.sum(&ThreadTally::reads) + r.sum(&ThreadTally::applies);
      out.failed += r.sum(&ThreadTally::errors);
    };
    run_segments(
        0, kSegments, &setup_s, set_up,
        [&](Fixture& f) { return run_passes(f, o, seg_s, UINT64_MAX, false, &passes); },
        [&](const PassResult& r) {
          check(r);
          reads += r.sum(&ThreadTally::reads);
          applies += r.sum(&ThreadTally::applies);
          read_s += r.read_s;
          apply_s += r.apply_s;
        });
    set_end_to_end(out, setup_s, passes);
    out.detail(fmt("seq_read_mops %.4f Mops/s over %.3f s; seq_apply_mops %.4f Mops/s over "
                   "%.3f s; %zu passes",
                   static_cast<double>(reads) / read_s / 1e6, read_s,
                   static_cast<double>(applies) / apply_s / 1e6, apply_s, passes.mops.size()));
    out.detail(fmt("latency: 1 get/apply call in %llu timed; tail_us is p%.4g",
                   static_cast<unsigned long long>(kSampleStride), passes.tail_q * 100));
    out.detail("per-pass Mops/s:" + join(passes.mops));
    const AllCpus all;
    run_segments(
        kSegments, 1, nullptr, set_up,
        [&](Fixture& f) { return run_passes(f, o, seg_s, UINT64_MAX, false); },
        [&](const PassResult& r) {
          check(r);
          out.detail(fmt("unpinned segment on %d CPUs: %.4f Mops/s (not a metric)", all.cpus(),
                         r.mops()));
        });
    return out;
  }

  // Traced run: untraced and traced halves on one fixture, so the tracing
  // overhead is measured on the same cluster state.
  guard::set_phase("setup");
  SpanLog setup_log(mix64(o.seed) + 99);
  std::unique_ptr<Fixture> f = setup(o, &setup_log);
  guard::set_phase("untraced");
  const PassResult u = run_passes(*f, o, o.seconds * 0.4, UINT64_MAX, false);
  guard::set_phase("traced");
  f->cluster->mark_stats_baseline("traced");
  const PassResult t = run_passes(*f, o, o.seconds * 0.4, UINT64_MAX, true);
  const darray::obs::StatsSnapshot delta = f->cluster->stats_delta_since("traced");
  guard::set_phase("teardown");
  f.reset();

  const uint64_t ops = t.sum(&ThreadTally::reads) + t.sum(&ThreadTally::applies);
  out.attempted = ops + u.sum(&ThreadTally::reads) + u.sum(&ThreadTally::applies);
  out.failed = t.sum(&ThreadTally::errors) + u.sum(&ThreadTally::errors);
  std::vector<const SpanLog*> logs{&setup_log};
  for (const auto& th : t.threads) logs.push_back(&th->log);
  counter_metrics(out, delta, static_cast<double>(ops));
  core_span_metrics(out, logs);
  out.set("obs.trace_overhead", u.mops() / t.mops(), "ratio");
  out.detail(fmt("untraced %.4f Mops/s, traced %.4f Mops/s", u.mops(), t.mops()));
  write_spans(out, "seq_scan", logs);
  return out;
}

}  // namespace perfbench
