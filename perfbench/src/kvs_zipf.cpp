// kvs_zipf: the DArray KVS (kvs::DKvs) behind its serving front door
// (serve::KvsService), one darray::Client per node keeping a window of 16
// requests in flight. Keys are zipfian (theta 0.99), 90 % gets and 10 %
// puts, every key loaded before timing; the accept queue is unbounded, so
// nothing is shed by design. It is the only workload that runs src/serve
// and src/kvs; skewed keys make the hot-key cache and contended bucket
// chunks matter.
#include <barrier>
#include <deque>
#include <optional>

#include "bench.hpp"
#include "kvs/kvs.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using darray::Status;
using darray::kvs::DKvs;
using darray::serve::KvsService;

// The traffic of the paper's KVS figure as bench/fig17_kvs.cpp drives it:
// 4000 keys, YcsbConfig's 100 B values, 1 << 10 main buckets (kvs_config).
constexpr uint64_t kKeys = 4000;
constexpr uint32_t kValueBytes = 100;
constexpr double kTheta = 0.99;
constexpr double kGetRatio = 0.9;
constexpr uint32_t kWindow = 16;
// Per client, part of set-up: enough gets for the hottest keys to earn
// promotion into the hot-key cache before timing.
constexpr uint64_t kWarmupReqs = 4000;
// Segments per run (see bench.hpp): more than the default, because one
// set-up's thread placement and hot-cache churn move this workload by ~20 %.
constexpr int kKvsSegments = 8;
constexpr uint64_t kClientTimeoutNs = 5'000'000'000;  // a stuck request fails, not hangs

darray::kvs::KvsConfig kvs_config() {
  darray::kvs::KvsConfig cfg;
  cfg.n_main_buckets = 1 << 10;
  return cfg;
}

std::string key_of(uint64_t k) { return "user" + std::to_string(k); }

// Every value names its key, so a get can be checked against "some put
// wrote this for that key".
std::string value_of(uint64_t k, uint32_t writer, uint64_t seq) {
  std::string v = "v" + std::to_string(k) + ":" + std::to_string(writer) + ":" +
                  std::to_string(seq) + ":";
  v.resize(kValueBytes, '.');
  return v;
}

bool value_ok(uint64_t k, const std::string& v) {
  const std::string prefix = "v" + std::to_string(k) + ":";
  return v.size() == kValueBytes && v.compare(0, prefix.size(), prefix) == 0;
}

struct Fixture {
  WatchedCluster cluster;
  DKvs kvs;
  KvsService svc;
  uint64_t rounds = 0;  // key-stream generations used so far
  uint64_t load_failures = 0;

  ~Fixture() { svc.shutdown(); }
};

struct ThreadTally {
  explicit ThreadTally(uint64_t seed) : get(seed), put(seed + 1), win(seed + 2), log(seed + 3) {}
  Samples get, put;  // request latencies by kind, issue to response (untraced)
  WindowTally win;   // every request by window (untraced)
  SpanLog log;       // every request (traced)
  uint64_t gets = 0, puts = 0, errors = 0;
  uint64_t t_start = 0, t_end = 0;
  uint64_t ops() const { return gets + puts; }
};

using Loop = LoopResult<ThreadTally>;

enum class Path { kClient, kClientTraced, kEngineTraced };

// One thread per node issues requests for `seconds` or `max_reqs` requests.
// Keys and op types come from a per-thread stream seeded by (seed, node,
// stream); the engine path replays the stream of the client loop it follows.
Loop run_loop(Fixture& f, const Options& o, const Zipf& zipf, double seconds,
                    uint64_t max_reqs, Path path, uint64_t stream) {
  Loop r;
  for (uint32_t n = 0; n < kNodes; ++n)
    r.threads.push_back(std::make_unique<ThreadTally>(mix64(o.seed) + 16 * n));
  uint64_t region_start = 0;
  std::barrier bar(kNodes, [&region_start]() noexcept { region_start = now_ns(); });
  const auto window_ns = static_cast<uint64_t>(seconds * 1e9 / kWindowsPerSegment);
  on_app_threads(*f.cluster, [&](NodeId n) {
    ThreadTally& tt = *r.threads[n];
    Rng rng(mix64(o.seed ^ (uint64_t{n} << 32) ^ (stream << 40)));
    struct Pending {
      bool is_get;
      uint64_t key, t0, op;
      darray::serve::OpHandle h;
    };
    std::deque<Pending> q;
    darray::Client cli;
    if (path != Path::kEngineTraced)
      cli = darray::Client::connect(f.svc, {.node = n, .window = kWindow,
                                            .timeout_ns = kClientTimeoutNs});
    auto finish = [&](bool is_get, uint64_t op, uint64_t t0, bool ok) {
      const uint64_t t1 = now_ns();
      tt.errors += !ok;
      ++(is_get ? tt.gets : tt.puts);
      if (path == Path::kClient) {
        (is_get ? tt.get : tt.put).add(t1 - t0);
        tt.win.add(t1 - region_start, window_ns, t1 - t0);
      } else if (path == Path::kClientTraced) {
        tt.log.add(op, is_get ? SpanKind::kClientGet : SpanKind::kClientPut, t0, t1);
      } else {
        tt.log.add(op, is_get ? SpanKind::kEngineGet : SpanKind::kEnginePut, t0, t1);
      }
      tt.t_end = t1;
    };
    auto harvest = [&] {
      Pending p = std::move(q.front());
      q.pop_front();
      const darray::serve::Response resp = p.h.get();
      const bool ok = resp.status == Status::kOk && (!p.is_get || value_ok(p.key, resp.value));
      finish(p.is_get, p.op, p.t0, ok);
    };
    bar.arrive_and_wait();
    tt.t_start = region_start;
    const uint64_t deadline = tt.t_start + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t i = 0; i < max_reqs && now_ns() < deadline; ++i) {
      const uint64_t k = zipf.next(rng);
      const bool is_get = rng.uniform() < kGetRatio;
      const uint64_t op = path == Path::kClient ? 0 : op_ids().fetch_add(1);
      const uint64_t t0 = now_ns();
      if (path == Path::kEngineTraced) {
        bool ok;
        if (is_get) {
          const std::optional<std::string> v = f.kvs.get(key_of(k));
          ok = v && value_ok(k, *v);
        } else {
          ok = f.kvs.put(key_of(k), value_of(k, n, i));
        }
        finish(is_get, op, t0, ok);
        continue;
      }
      q.push_back({is_get, k, t0, op,
                   is_get ? cli.async_get(key_of(k))
                          : cli.async_put(key_of(k), value_of(k, n, i))});
      if (q.size() >= kWindow) harvest();
    }
    while (!q.empty()) harvest();
  });
  return r;
}

// Cluster, DKvs, KvsService, every key loaded through the clients, and a
// warm-up that promotes the hot keys. Each segment draws its own key streams.
std::unique_ptr<Fixture> setup(const Options& o, const Zipf& zipf, int segment, SpanLog* log) {
  const uint64_t op = op_ids().fetch_add(1);
  uint64_t t0 = now_ns();
  auto f = std::make_unique<Fixture>();
  f->rounds = 16 * static_cast<uint64_t>(segment);
  if (log) log->add(op, SpanKind::kClusterCtor, t0, now_ns());
  t0 = now_ns();
  f->kvs = DKvs::create(*f->cluster, kvs_config());
  darray::serve::ServeConfig scfg;
  scfg.accept_queue_cap = 0;  // unbounded: nothing is shed by design
  f->svc = KvsService::create(*f->cluster, f->kvs, scfg);
  if (log) log->add(op, SpanKind::kArrayCreate, t0, now_ns());
  std::atomic<uint64_t> failures{0};
  on_app_threads(*f->cluster, [&](NodeId n) {
    darray::Client cli = darray::Client::connect(
        f->svc, {.node = n, .window = kWindow, .timeout_ns = kClientTimeoutNs});
    std::deque<darray::serve::OpHandle> q;
    for (uint64_t k = n; k < kKeys; k += kNodes) {
      q.push_back(cli.async_put(key_of(k), value_of(k, n, 0)));
      if (q.size() >= kWindow) {
        failures += q.front().get().status != Status::kOk;
        q.pop_front();
      }
    }
    for (; !q.empty(); q.pop_front()) failures += q.front().get().status != Status::kOk;
  });
  const Loop warm = run_loop(*f, o, zipf, 1e9, kWarmupReqs, Path::kClient, f->rounds++);
  f->load_failures = failures.load() + warm.sum(&ThreadTally::errors);
  return f;
}

}  // namespace

Outcome run_kvs_zipf(const Options& o) {
  Outcome out;
  guard::set_phase("inputs");
  const Zipf zipf(kKeys, kTheta);
  const darray::kvs::KvsConfig kcfg = kvs_config();
  out.sizes.push_back(fmt(
      "kvs_zipf: %llu keys x %u B values; DKvs entry array %llu B, byte array %llu B; "
      "cache per node %llu B (entries) / %llu B (bytes)",
      static_cast<unsigned long long>(kKeys), kValueBytes,
      static_cast<unsigned long long>((kcfg.n_main_buckets + kcfg.n_overflow_buckets) *
                                      DKvs::kSlots * 8),
      static_cast<unsigned long long>(kcfg.byte_capacity),
      static_cast<unsigned long long>(cache_bytes_per_node(cluster_config(), 8)),
      static_cast<unsigned long long>(cache_bytes_per_node(cluster_config(), 1))));

  if (!o.trace) {
    const double seg_s = o.seconds / kKvsSegments;
    std::vector<double> setup_s, get_p50, get_p99, put_p50, whole_kops;
    Windows win;
    uint64_t gets = 0, puts = 0, shed = 0;
    auto set_up = [&](int seg) { return setup(o, zipf, seg, nullptr); };
    auto timed = [&](Fixture& f) {
      Loop r = run_loop(f, o, zipf, seg_s, UINT64_MAX, Path::kClient, f.rounds++);
      out.failed += f.load_failures;
      shed += f.cluster->stats().value_or("serve.shed");
      return r;
    };
    auto check = [&out](const Loop& r) {
      out.attempted += r.ops();
      out.failed += r.sum(&ThreadTally::errors);
    };
    run_segments(0, kKvsSegments, &setup_s, set_up, timed, [&](const Loop& r) {
      check(r);
      win.add(r.windows(), seg_s / kWindowsPerSegment);
      gets += r.sum(&ThreadTally::gets);
      puts += r.sum(&ThreadTally::puts);
      whole_kops.push_back(r.mops() * 1e3);
      get_p50.push_back(percentile_us(r.samples(&ThreadTally::get), 0.5));
      get_p99.push_back(percentile_us(r.samples(&ThreadTally::get), 0.99));
      put_p50.push_back(percentile_us(r.samples(&ThreadTally::put), 0.5));
    });
    set_end_to_end(out, setup_s, win);
    out.detail(fmt("kvs_kops %.3f Kops/s; %llu gets, %llu puts; tail_us is p%.4g; serve.shed "
                   "%llu",
                   iq_mean(win.mops) * 1e3, static_cast<unsigned long long>(gets),
                   static_cast<unsigned long long>(puts), win.tail_q * 100,
                   static_cast<unsigned long long>(shed)));
    out.detail(fmt("kvs_get_p50_us %.3f, kvs_get_p99_us %.3f, kvs_put_p50_us %.3f "
                   "(interquartile means over segments)",
                   iq_mean(get_p50), iq_mean(get_p99), iq_mean(put_p50)));
    out.detail("per-segment Kops/s:" + join(whole_kops));
    const AllCpus all;
    run_segments(kKvsSegments, 1, nullptr, set_up, timed, [&](const Loop& r) {
      check(r);
      out.detail(fmt("unpinned segment on %d CPUs: %.3f Kops/s (not a metric)", all.cpus(),
                     r.mops() * 1e3));
    });
    return out;
  }

  guard::set_phase("setup");
  SpanLog setup_log(mix64(o.seed) + 99);
  std::unique_ptr<Fixture> f = setup(o, zipf, 0, &setup_log);
  guard::set_phase("untraced");
  const Loop u = run_loop(*f, o, zipf, o.seconds * 0.3, UINT64_MAX, Path::kClient,
                                f->rounds++);
  guard::set_phase("traced");
  const uint64_t stream = f->rounds++;
  f->cluster->mark_stats_baseline("traced");
  const Loop t =
      run_loop(*f, o, zipf, o.seconds * 0.3, UINT64_MAX, Path::kClientTraced, stream);
  const darray::obs::StatsSnapshot delta = f->cluster->stats_delta_since("traced");
  guard::set_phase("engine");
  const Loop e =
      run_loop(*f, o, zipf, o.seconds * 0.2, UINT64_MAX, Path::kEngineTraced, stream);
  guard::set_phase("teardown");
  f.reset();

  out.attempted = u.ops() + t.ops() + e.ops();
  out.failed = u.sum(&ThreadTally::errors) + t.sum(&ThreadTally::errors) +
               e.sum(&ThreadTally::errors);
  std::vector<const SpanLog*> logs{&setup_log};
  for (const auto& th : t.threads) logs.push_back(&th->log);
  for (const auto& th : e.threads) logs.push_back(&th->log);
  counter_metrics(out, delta, static_cast<double>(t.ops()));
  // The engine's own DArray calls happen inside DKvs, out of the
  // benchmark's sight, so there is no API-op base for a hit ratio.
  out.set("core.hit_ratio", 0, "ratio");
  const double engine_get = span_percentile_us(logs, SpanKind::kEngineGet, false, 0.5);
  const double client_get = span_percentile_us(logs, SpanKind::kClientGet, false, 0.5);
  out.set("kvs.engine_get_us", engine_get, "us");
  out.set("kvs.engine_put_us", span_percentile_us(logs, SpanKind::kEnginePut, false, 0.5), "us");
  out.set("serve.overhead_us", client_get - engine_get, "us");
  auto v = [&delta](const char* name) { return static_cast<double>(delta.value_or(name)); };
  const double gets = static_cast<double>(t.sum(&ThreadTally::gets));
  out.set("serve.hot_hit_ratio", gets > 0 ? v("serve.hot_hits") / gets : 0, "ratio");
  const double routed = v("serve.reqs_wire") + v("serve.reqs_local");
  out.set("serve.wire_share", routed > 0 ? v("serve.reqs_wire") / routed : 0, "ratio");
  out.set("serve.shed", v("serve.shed"), "count");
  out.set("obs.trace_overhead", u.mops() / t.mops(), "ratio");
  out.detail(fmt("untraced %.3f Kops/s, traced %.3f Kops/s, engine direct %.3f Kops/s; client "
                 "get p50 %.3f us, engine get p50 %.3f us",
                 u.mops() * 1e3, t.mops() * 1e3, e.mops() * 1e3, client_get, engine_get));
  write_spans(out, "kvs_zipf", logs);
  return out;
}

}  // namespace perfbench
