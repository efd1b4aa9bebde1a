// rand_rw: closed-loop uniform random gets (80 %) and sets (20 %) over a
// DArray<uint64_t> four times the aggregate cache, each call timed. Each
// thread draws its indices from the other node's half, so nearly every
// access misses and the runtime engine (fills, invalidations, eviction and
// write-back), the comm layer's Tx/Rx hops and the fabric do the work while
// the core fast path does almost none. (Home-half accesses would hit; with
// half the calls hitting, the median would sit on the cliff between the
// hit and miss modes.) Sets beside gets put exclusive-ownership
// invalidations beside shared fills.
#include <barrier>

#include "bench.hpp"

namespace perfbench {
namespace {

using darray::DArray;

// 16 MiB of uint64_t: four times the two nodes' 2 MiB cache regions.
constexpr uint64_t kElems = uint64_t{2} << 20;
constexpr uint64_t kWarmupOps = 2000;  // per thread, part of set-up: fills the caches
// Segments per run (see bench.hpp): more than the default, because one
// set-up's thread placement moves this miss-bound workload by ~20 %.
constexpr int kRandSegments = 8;
constexpr uint8_t kPreloadWriter = 0xff;

// A set stores (index << 8) | writer, so any read decodes to its own index.
uint64_t encode(uint64_t index, uint8_t writer) { return (index << 8) | writer; }

struct Fixture {
  WatchedCluster cluster;
  DArray<uint64_t> arr;
  uint64_t rounds = 0;  // index-stream generations used so far
};

struct ThreadTally {
  explicit ThreadTally(uint64_t seed) : get(seed), set(seed + 1), win(seed + 2), log(seed + 3) {}
  Samples get, set;  // per-call latencies by kind (untraced)
  WindowTally win;   // every call by window (untraced)
  SpanLog log;       // every call (traced)
  uint64_t gets = 0, sets = 0, errors = 0;
  uint64_t t_start = 0, t_end = 0;
  uint64_t ops() const { return gets + sets; }
};

using Loop = LoopResult<ThreadTally>;

// Each thread issues `max_ops` calls or runs for `seconds`, whichever ends
// first. Every call of one loop draws from a fresh per-thread stream seeded
// by (seed, node, loop number), so a seed fixes every index and op type.
Loop run_loop(Fixture& f, const Options& o, double seconds, uint64_t max_ops,
                    bool traced) {
  Loop r;
  const uint64_t round = f.rounds++;
  for (uint32_t n = 0; n < kNodes; ++n)
    r.threads.push_back(std::make_unique<ThreadTally>(mix64(o.seed) + 16 * n));
  uint64_t region_start = 0;
  std::barrier bar(kNodes, [&region_start]() noexcept { region_start = now_ns(); });
  const auto window_ns = static_cast<uint64_t>(seconds * 1e9 / kWindowsPerSegment);
  on_app_threads(*f.cluster, [&](NodeId n) {
    ThreadTally& tt = *r.threads[n];
    Rng rng(mix64(o.seed ^ (uint64_t{n} << 32) ^ (round << 40)));
    const auto writer = static_cast<uint8_t>(n);
    const NodeId other = (n + 1) % kNodes;
    const uint64_t remote_begin = f.arr.local_begin(other);
    const uint64_t remote_len = f.arr.local_end(other) - remote_begin;
    uint64_t op = uint64_t{n + 1} << 48;
    bar.arrive_and_wait();
    tt.t_start = region_start;
    const uint64_t deadline = tt.t_start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t t = tt.t_start;
    for (uint64_t k = 0; k < max_ops && t < deadline; ++k) {
      const uint64_t i = remote_begin + rng.below(remote_len);
      const bool is_set = rng.below(5) == 0;
      // range_cached sees only read permission: a set to a chunk held for
      // reading counts as a hit, though it still upgrades through the runtime.
      const bool hit = traced && f.arr.range_cached(i, 1);
      const uint64_t t0 = now_ns();
      if (is_set) {
        f.arr.set(i, encode(i, writer));
      } else {
        tt.errors += (f.arr.get(i) >> 8) != i;
      }
      t = now_ns();
      if (traced) {
        tt.log.add(++op, is_set ? SpanKind::kSet : SpanKind::kGet, t0, t, hit);
      } else {
        (is_set ? tt.set : tt.get).add(t - t0);
        tt.win.add(t - region_start, window_ns, t - t0);
      }
      ++(is_set ? tt.sets : tt.gets);
    }
    tt.t_end = t;
  });
  return r;
}

// Cluster, array, preload by each home node, and a warm-up that fills the
// caches. Each segment draws its own index streams.
std::unique_ptr<Fixture> setup(const Options& o, int segment, SpanLog* log) {
  const uint64_t op = op_ids().fetch_add(1);
  uint64_t t0 = now_ns();
  auto f = std::make_unique<Fixture>();
  f->rounds = 16 * static_cast<uint64_t>(segment);
  if (log) log->add(op, SpanKind::kClusterCtor, t0, now_ns());
  t0 = now_ns();
  f->arr = DArray<uint64_t>::create(*f->cluster, kElems);
  if (log) log->add(op, SpanKind::kArrayCreate, t0, now_ns());
  on_app_threads(*f->cluster, [&](NodeId n) {
    for (uint64_t i = f->arr.local_begin(n); i < f->arr.local_end(n); ++i)
      f->arr.set(i, encode(i, kPreloadWriter));
  });
  run_loop(*f, o, 1e9, kWarmupOps, false);
  return f;
}

}  // namespace

Outcome run_rand_rw(const Options& o) {
  Outcome out;
  const ClusterConfig cfg = cluster_config();
  out.sizes.push_back(fmt("rand_rw: array %llu B (%llu x 8 B); cache per node %llu B; "
                          "aggregate cache %llu B",
                          static_cast<unsigned long long>(kElems * 8),
                          static_cast<unsigned long long>(kElems),
                          static_cast<unsigned long long>(cache_bytes_per_node(cfg, 8)),
                          static_cast<unsigned long long>(kNodes *
                                                          cache_bytes_per_node(cfg, 8))));

  if (!o.trace) {
    const double seg_s = o.seconds / kRandSegments;
    std::vector<double> setup_s, get_p50, get_p99, set_p50, set_p99, whole_mops;
    Windows win;
    uint64_t gets = 0, sets = 0;
    auto set_up = [&o](int seg) { return setup(o, seg, nullptr); };
    auto timed = [&](Fixture& f) { return run_loop(f, o, seg_s, UINT64_MAX, false); };
    auto check = [&out](const Loop& r) {
      out.attempted += r.ops();
      out.failed += r.sum(&ThreadTally::errors);
    };
    run_segments(0, kRandSegments, &setup_s, set_up, timed, [&](const Loop& r) {
      check(r);
      gets += r.sum(&ThreadTally::gets);
      sets += r.sum(&ThreadTally::sets);
      win.add(r.windows(), seg_s / kWindowsPerSegment);
      whole_mops.push_back(r.mops());
      get_p50.push_back(percentile_us(r.samples(&ThreadTally::get), 0.5));
      get_p99.push_back(percentile_us(r.samples(&ThreadTally::get), 0.99));
      set_p50.push_back(percentile_us(r.samples(&ThreadTally::set), 0.5));
      set_p99.push_back(percentile_us(r.samples(&ThreadTally::set), 0.99));
    });
    set_end_to_end(out, setup_s, win);
    out.detail(fmt("rand_mops %.5f Mops/s; %llu gets, %llu sets; tail_us is p%.4g",
                   iq_mean(win.mops), static_cast<unsigned long long>(gets),
                   static_cast<unsigned long long>(sets), win.tail_q * 100));
    out.detail(fmt("rand_get_p50_us %.3f, rand_get_p99_us %.3f, rand_set_p50_us %.3f, "
                   "rand_set_p99_us %.3f (interquartile means over segments)",
                   iq_mean(get_p50), iq_mean(get_p99), iq_mean(set_p50), iq_mean(set_p99)));
    out.detail("per-segment Mops/s:" + join(whole_mops));
    const AllCpus all;
    run_segments(kRandSegments, 1, nullptr, set_up, timed, [&](const Loop& r) {
      check(r);
      out.detail(fmt("unpinned segment on %d CPUs: %.5f Mops/s (not a metric)", all.cpus(),
                     r.mops()));
    });
    return out;
  }

  guard::set_phase("setup");
  SpanLog setup_log(mix64(o.seed) + 99);
  std::unique_ptr<Fixture> f = setup(o, 0, &setup_log);
  guard::set_phase("untraced");
  const Loop u = run_loop(*f, o, o.seconds * 0.4, UINT64_MAX, false);
  guard::set_phase("traced");
  f->cluster->mark_stats_baseline("traced");
  const Loop t = run_loop(*f, o, o.seconds * 0.4, UINT64_MAX, true);
  const darray::obs::StatsSnapshot delta = f->cluster->stats_delta_since("traced");
  guard::set_phase("teardown");
  f.reset();

  out.attempted = u.ops() + t.ops();
  out.failed = u.sum(&ThreadTally::errors) + t.sum(&ThreadTally::errors);
  std::vector<const SpanLog*> logs{&setup_log};
  for (const auto& th : t.threads) logs.push_back(&th->log);
  counter_metrics(out, delta, static_cast<double>(t.ops()));
  core_span_metrics(out, logs);
  out.set("obs.trace_overhead", u.mops() / t.mops(), "ratio");
  out.detail(fmt("untraced %.5f Mops/s, traced %.5f Mops/s", u.mops(), t.mops()));
  write_spans(out, "rand_rw", logs);
  return out;
}

}  // namespace perfbench
