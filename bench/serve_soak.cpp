// Serve-path soak: open-loop arrival curves through the client front door,
// measuring tail latency and goodput under overload with admission control on
// vs off, and the hot-key cache's effect on a zipfian-0.99 read mix.
//
//   build/bench/serve_soak [--json] [--metrics-dump] [--profile]
//
// Phases (each on a fresh cluster + service):
//   calibrate      capacity of the open-loop path (not reported)
//   admission_on   open-loop at ~2x capacity with a mid-run burst, bounded
//                  accept queue: excess arrivals shed with kBusy, tail of the
//                  *served* requests stays bounded
//   admission_off  same arrival schedule, unbounded queue: nothing sheds, the
//                  queue grows for the whole run, and p99 blows up
//   hot_on/hot_off 95% gets, zipfian 0.99 at moderate load: the owner-side
//                  hot-key cache answers the zipfian head without touching
//                  the storage engine
//   stages         request-journey breakdown (obs v4) under a 500 µs injected
//                  backend stall: the five stage histograms must partition
//                  end-to-end latency (stage_sum_ratio ~ 1) and the backend
//                  stage must dominate the retained slow journeys
//
// The paper's serving story (§6.5) is closed-loop throughput; this harness
// covers the orthogonal SLO axis: what clients *experience* when offered load
// exceeds capacity. Sojourn time is measured from the scheduled arrival, so
// client-side queueing (window waits) counts — the honest open-loop metric.
//
// --metrics-dump writes the final /metrics exposition (serve counters
// included) to serve_metrics.prom for scripts/validate_prometheus.py.
//
// --profile adds the continuous-profiling overhead phase (obs v5): identical
// closed-loop runs with the sampling profiler disarmed vs armed at 97 Hz.
// profile_on/profile_off ops_per_s is the CI overhead gate (>= 0.97); a
// higher-rate run then writes serve_profile.prof (obs::dump_profile) and
// serve_profile.collapsed (folded stacks) for scripts/validate_collapsed.py.
#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>

#include "bench/bench_util.hpp"
#include "kvs/kvs.hpp"
#include "obs/journey.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry_server.hpp"
#include "serve/client.hpp"
#include "serve/ycsb_serve.hpp"

using namespace darray;
using namespace darray::bench;
using namespace darray::kvs;
using namespace darray::serve;

namespace {

struct PhaseResult {
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  double shed_pct = 0;      // shed / offered
  double goodput_kops = 0;  // kOk+kNotFound responses per second
  double hot_hit_pct = 0;   // hot-cache hits / gets
  double get_mean_us = 0;   // sync-get mean (hot phases: robust to hit mass)
  double get_p50_us = 0;    // sync-get median (hot phases: the zipfian head)
  double get_p99_us = 0;    // sync-get tail (hot phases)
};

double pct(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return static_cast<double>(v[std::min(v.size() - 1,
                                        static_cast<size_t>(q * (v.size() - 1) + 0.5))]);
}

struct Fleet {
  rt::Cluster cluster;
  KvsService svc;

  Fleet(uint32_t nodes, const ServeConfig& scfg, const YcsbConfig& ycfg)
      : cluster(bench_cfg(nodes)) {
    KvsConfig kcfg;
    kcfg.n_main_buckets = 1 << 10;
    svc = KvsService::create(cluster, DKvs::create(cluster), scfg);
    ycsb_load_serve(svc, ycfg);
  }
  ~Fleet() { svc.shutdown(); }
};

// Open-loop phase: `rate_ops` total arrivals/s split across one session per
// node, with a 3x burst in the middle 20% of the run. Sojourn = completion
// time minus *scheduled* arrival time.
PhaseResult run_open_loop(uint32_t nodes, const ServeConfig& scfg, YcsbConfig ycfg,
                          double rate_ops, uint64_t total_ops) {
  Fleet f(nodes, scfg, ycfg);
  ServeCounters& c = f.svc.counters();

  const uint64_t ops_per_thread = total_ops / nodes;
  const double rate_per_thread = rate_ops / nodes;
  std::vector<std::vector<uint64_t>> lat(nodes);
  std::vector<std::thread> ts;
  SenseBarrier barrier(nodes + 1);
  std::atomic<uint64_t> good{0};

  for (uint32_t n = 0; n < nodes; ++n) {
    ts.emplace_back([&, n] {
      Client cli = Client::connect(f.svc, {.node = n, .window = 256});
      Xoshiro256 rng(1000003 * 97 + n);
      ZipfGenerator zipf(ycfg.n_keys, ycfg.zipf_theta);
      std::deque<std::pair<uint64_t, serve::OpHandle>> q;  // (t_sched, handle)
      auto& my_lat = lat[n];
      my_lat.reserve(ops_per_thread);
      uint64_t my_good = 0;
      auto harvest = [&] {
        auto [t_sched, h] = std::move(q.front());
        q.pop_front();
        const Response r = h.get();
        my_lat.push_back(now_ns() - t_sched);
        if (r.status == Status::kOk || r.status == Status::kNotFound) ++my_good;
      };
      barrier.arrive_and_wait();
      const uint64_t t0 = now_ns();
      // Piecewise arrival schedule: 1x — 3x burst — 1x, same op budget.
      const uint64_t burst_lo = ops_per_thread * 2 / 5;
      const uint64_t burst_hi = ops_per_thread * 3 / 5;
      double t_rel_s = 0;
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const double r = (i >= burst_lo && i < burst_hi) ? rate_per_thread * 3
                                                         : rate_per_thread;
        t_rel_s += 1.0 / r;
        const uint64_t t_sched = t0 + static_cast<uint64_t>(t_rel_s * 1e9);
        while (now_ns() < t_sched) {
          if (!q.empty() && q.front().second.ready())
            harvest();  // drain completions instead of spinning idle
          else
            std::this_thread::yield();
        }
        while (q.size() >= 256) harvest();
        const uint64_t k = zipf.next(rng);
        if (rng.next_double() < ycfg.get_ratio)
          q.emplace_back(t_sched, cli.async_get(ycsb_key(k)));
        else
          q.emplace_back(t_sched,
                         cli.async_put(ycsb_key(k), ycsb_value(k ^ i, ycfg.value_bytes)));
      }
      while (!q.empty()) harvest();
      good.fetch_add(my_good);
      barrier.arrive_and_wait();
    });
  }

  barrier.arrive_and_wait();
  const uint64_t t0 = now_ns();
  barrier.arrive_and_wait();
  const uint64_t t1 = now_ns();
  for (auto& t : ts) t.join();

  std::vector<uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());

  PhaseResult r;
  r.p50_ms = pct(all, 0.50) / 1e6;
  r.p99_ms = pct(all, 0.99) / 1e6;
  r.p999_ms = pct(all, 0.999) / 1e6;
  const double offered = static_cast<double>(c.accepted.load() + c.shed.load());
  r.shed_pct = offered > 0 ? 100.0 * static_cast<double>(c.shed.load()) / offered : 0;
  r.goodput_kops =
      static_cast<double>(good.load()) / (static_cast<double>(t1 - t0) / 1e9) / 1e3;
  return r;
}

// Capacity of the path the open-loop phases load: their unbound sessions
// queue every request to the dispatcher workers (a bound client would run
// owner-local requests itself, past the workers). So it is the open-loop
// phase itself with no arrival schedule (every session keeps its window
// full) and an unbounded queue (nothing sheds); its goodput is the capacity.
double calibrate_kops(uint32_t nodes, ServeConfig scfg, const YcsbConfig& ycfg) {
  scfg.accept_queue_cap = 0;
  const uint64_t ops = env_u64("DARRAY_BENCH_CAL_OPS", 3000) * nodes;
  return run_open_loop(nodes, scfg, ycfg, std::numeric_limits<double>::infinity(), ops)
      .goodput_kops;
}

// Hot-key phase: closed-loop sync gets (so each get is individually timed)
// over a zipfian 0.99 mix with occasional puts for invalidation traffic.
PhaseResult run_hot(uint32_t nodes, const ServeConfig& scfg, YcsbConfig ycfg,
                    uint64_t ops_per_thread) {
  Fleet f(nodes, scfg, ycfg);
  ServeCounters& c = f.svc.counters();

  std::vector<std::vector<uint64_t>> lat(nodes);
  std::vector<std::thread> ts;
  for (uint32_t n = 0; n < nodes; ++n) {
    ts.emplace_back([&, n] {
      Client cli = Client::connect(f.svc, {.node = n});
      Xoshiro256 rng(7 * 1000003 + n);
      ZipfGenerator zipf(ycfg.n_keys, ycfg.zipf_theta);
      auto& my_lat = lat[n];
      my_lat.reserve(ops_per_thread);
      std::string v;
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const uint64_t k = zipf.next(rng);
        if (rng.next_double() < ycfg.get_ratio) {
          const uint64_t s = now_ns();
          cli.get(ycsb_key(k), v);
          my_lat.push_back(now_ns() - s);
        } else {
          cli.put(ycsb_key(k), ycsb_value(k ^ i, ycfg.value_bytes));
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  std::vector<uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());

  PhaseResult r;
  uint64_t sum = 0;
  for (const uint64_t ns : all) sum += ns;
  r.get_mean_us =
      all.empty() ? 0 : static_cast<double>(sum) / static_cast<double>(all.size()) / 1e3;
  r.get_p50_us = pct(all, 0.50) / 1e3;
  r.get_p99_us = pct(all, 0.99) / 1e3;
  const uint64_t gets = static_cast<uint64_t>(all.size());
  r.hot_hit_pct = gets ? 100.0 * static_cast<double>(c.hot_hits.load()) /
                             static_cast<double>(gets)
                       : 0;
  return r;
}

// Journey-breakdown phase: closed-loop sync ops against workers with a fixed
// artificial backend stall, reading the per-stage histograms the serve path
// filled. The load phase's journeys are dropped first so the numbers cover
// only the timed mix.
struct StageResult {
  double p50_us[obs::kNumJourneyStages] = {0};
  double p99_us[obs::kNumJourneyStages] = {0};
  double e2e_p50_us = 0, e2e_p99_us = 0;
  double stage_sum_ratio = 0;   // sum of per-stage sums / end-to-end sum
  double backend_dom_pct = 0;   // % of retained slow journeys backend-dominated
  double retained = 0;
};

StageResult run_stages(uint32_t nodes, const ServeConfig& scfg, YcsbConfig ycfg,
                       uint64_t ops_per_thread) {
  Fleet f(nodes, scfg, ycfg);
  auto& jc = obs::journey_collector();
  jc.reset();

  std::vector<std::thread> ts;
  for (uint32_t n = 0; n < nodes; ++n) {
    ts.emplace_back([&, n] {
      Client cli = Client::connect(f.svc, {.node = n});
      Xoshiro256 rng(13 * 1000003 + n);
      ZipfGenerator zipf(ycfg.n_keys, ycfg.zipf_theta);
      std::string v;
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const uint64_t k = zipf.next(rng);
        if (rng.next_double() < ycfg.get_ratio)
          cli.get(ycsb_key(k), v);
        else
          cli.put(ycsb_key(k), ycsb_value(k ^ i, ycfg.value_bytes));
      }
    });
  }
  for (auto& t : ts) t.join();

  StageResult r;
  uint64_t stage_sum = 0;
  for (size_t s = 0; s < obs::kNumJourneyStages; ++s) {
    const obs::HistogramSnapshot snap =
        jc.stage_snapshot(static_cast<obs::JourneyStage>(s));
    r.p50_us[s] = static_cast<double>(snap.percentile_ns(0.50)) / 1e3;
    r.p99_us[s] = static_cast<double>(snap.percentile_ns(0.99)) / 1e3;
    stage_sum += snap.sum_ns;
  }
  const obs::HistogramSnapshot e2e = jc.e2e_snapshot();
  r.e2e_p50_us = static_cast<double>(e2e.percentile_ns(0.50)) / 1e3;
  r.e2e_p99_us = static_cast<double>(e2e.percentile_ns(0.99)) / 1e3;
  r.stage_sum_ratio =
      e2e.sum_ns ? static_cast<double>(stage_sum) / static_cast<double>(e2e.sum_ns) : 0;

  uint64_t slow = 0, backend_dom = 0;
  for (const obs::RequestJourney& j : jc.snapshot_retained()) {
    if (j.flags != 0 || j.total_ns() == 0) continue;  // sheds/timeouts: no chain
    ++slow;
    if (j.dominant_stage() == obs::JourneyStage::kBackend) ++backend_dom;
  }
  r.backend_dom_pct =
      slow ? 100.0 * static_cast<double>(backend_dom) / static_cast<double>(slow) : 0;
  r.retained = static_cast<double>(jc.retained());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  obs::register_current_thread("main");
  const bool json = has_flag(argc, argv, "--json");
  const bool dump = has_flag(argc, argv, "--metrics-dump");
  const bool profile = has_flag(argc, argv, "--profile");
  const uint32_t nodes = std::min<uint32_t>(3, max_nodes());
  JsonReport report("serve_soak", json);

  YcsbConfig ycfg;
  ycfg.n_keys = env_u64("DARRAY_BENCH_KEYS", 2000);
  ycfg.get_ratio = 0.9;
  ycfg.value_bytes = 64;
  ycfg.threads_per_node = 1;

  // A fixed artificial service time makes capacity (and therefore "2x
  // overload") reproducible across hosts.
  ServeConfig base;
  base.workers_per_node = 2;
  base.worker_delay_ns = env_u64("DARRAY_SERVE_DELAY_NS", 400'000);
  base.hot_key_enabled = false;  // isolate admission; hot phases re-enable

  const double cap_kops = calibrate_kops(nodes, base, ycfg);
  const double rate = cap_kops * 1e3 * 2.0;  // 2x overload
  const uint64_t total_ops = env_u64("DARRAY_BENCH_SOAK_OPS", 9000);
  std::printf("calibrated capacity: %.1f Kops/s -> open-loop rate %.0f ops/s\n",
              cap_kops, rate);

  const uint32_t reps = json ? bench_reps() : 1;
  std::vector<double> on_p50, on_p99, on_p999, on_shed, on_good;
  std::vector<double> off_p50, off_p99, off_p999, off_shed, off_good;
  print_header("open loop @ 2x capacity (+3x burst), " + std::to_string(nodes) + " nodes",
               {"phase", "p50_ms", "p99_ms", "p999_ms", "shed%", "goodKops"});
  for (uint32_t rep = 0; rep < reps; ++rep) {
    ServeConfig on = base;
    on.accept_queue_cap = static_cast<uint32_t>(env_u64("DARRAY_SERVE_CAP", 64));
    PhaseResult a = run_open_loop(nodes, on, ycfg, rate, total_ops);
    on_p50.push_back(a.p50_ms);
    on_p99.push_back(a.p99_ms);
    on_p999.push_back(a.p999_ms);
    on_shed.push_back(a.shed_pct);
    on_good.push_back(a.goodput_kops);
    print_row(1, {a.p50_ms, a.p99_ms, a.p999_ms, a.shed_pct, a.goodput_kops}, "%14.2f");

    ServeConfig off = base;
    off.accept_queue_cap = 0;  // unbounded: the no-admission baseline
    PhaseResult b = run_open_loop(nodes, off, ycfg, rate, total_ops);
    off_p50.push_back(b.p50_ms);
    off_p99.push_back(b.p99_ms);
    off_p999.push_back(b.p999_ms);
    off_shed.push_back(b.shed_pct);
    off_good.push_back(b.goodput_kops);
    print_row(0, {b.p50_ms, b.p99_ms, b.p999_ms, b.shed_pct, b.goodput_kops}, "%14.2f");
  }
  report.add("admission_on", "p50_ms", "ms", on_p50);
  report.add("admission_on", "p99_ms", "ms", on_p99);
  report.add("admission_on", "p999_ms", "ms", on_p999);
  report.add("admission_on", "shed_pct", "pct", on_shed);
  report.add("admission_on", "goodput_kops", "Kops/s", on_good);
  report.add("admission_off", "p50_ms", "ms", off_p50);
  report.add("admission_off", "p99_ms", "ms", off_p99);
  report.add("admission_off", "p999_ms", "ms", off_p999);
  report.add("admission_off", "shed_pct", "pct", off_shed);
  report.add("admission_off", "goodput_kops", "Kops/s", off_good);

  // Hot-key phases: same moderate closed-loop load, cache on vs off.
  YcsbConfig hcfg = ycfg;
  hcfg.get_ratio = 0.95;
  const uint64_t hot_ops = env_u64("DARRAY_BENCH_HOT_OPS", 4000);
  // Hot phases model a slower storage probe (hits skip it entirely — that is
  // the cache's value proposition) and a wider hot set so the zipfian head
  // fits. The storage engine itself is untouched; the delay stands in for
  // slab-probe + bucket-walk cost under contention.
  ServeConfig hot_base = base;
  hot_base.worker_delay_ns = env_u64("DARRAY_SERVE_HOT_DELAY_NS", 400'000);
  hot_base.hot_max_entries = 64;
  std::vector<double> hot_on_mean, hot_on_p50, hot_on_p99, hot_hits;
  std::vector<double> hot_off_mean, hot_off_p50, hot_off_p99;
  print_header("hot-key cache, zipfian 0.99, 95% gets",
               {"hot", "get_mean_us", "get_p50_us", "get_p99_us", "hit%"});
  for (uint32_t rep = 0; rep < reps; ++rep) {
    ServeConfig hot = hot_base;
    hot.hot_key_enabled = true;
    hot.hot_promote_threshold = 8;
    PhaseResult h1 = run_hot(nodes, hot, hcfg, hot_ops);
    hot_on_mean.push_back(h1.get_mean_us);
    hot_on_p50.push_back(h1.get_p50_us);
    hot_on_p99.push_back(h1.get_p99_us);
    hot_hits.push_back(h1.hot_hit_pct);
    print_row(1, {h1.get_mean_us, h1.get_p50_us, h1.get_p99_us, h1.hot_hit_pct},
              "%14.2f");

    ServeConfig cold = hot_base;  // hot_key_enabled already false
    PhaseResult h0 = run_hot(nodes, cold, hcfg, hot_ops);
    hot_off_mean.push_back(h0.get_mean_us);
    hot_off_p50.push_back(h0.get_p50_us);
    hot_off_p99.push_back(h0.get_p99_us);
    print_row(0, {h0.get_mean_us, h0.get_p50_us, h0.get_p99_us, 0.0}, "%14.2f");
  }
  report.add("hot_on", "get_mean_us", "us", hot_on_mean);
  report.add("hot_on", "get_p50_us", "us", hot_on_p50);
  report.add("hot_on", "get_p99_us", "us", hot_on_p99);
  report.add("hot_on", "hot_hit_pct", "pct", hot_hits);
  report.add("hot_off", "get_mean_us", "us", hot_off_mean);
  report.add("hot_off", "get_p50_us", "us", hot_off_p50);
  report.add("hot_off", "get_p99_us", "us", hot_off_p99);

  // Stage-breakdown phase: a 500 µs backend stall must show up as the backend
  // stage, the stages must account for (nearly) all of end-to-end time, and
  // the tail sampler must retain slow journeys blaming the backend.
  ServeConfig stage_cfg = base;
  stage_cfg.worker_delay_ns = env_u64("DARRAY_SERVE_STAGE_DELAY_NS", 500'000);
  const uint64_t stage_ops = env_u64("DARRAY_BENCH_STAGE_OPS", 1500);
  std::vector<double> st_ratio, st_dom, st_retained, st_e2e_p50, st_e2e_p99;
  std::vector<std::vector<double>> st_p50(obs::kNumJourneyStages),
      st_p99(obs::kNumJourneyStages);
  print_header("request-journey stages, 500us backend stall",
               {"phase", "backend_p50us", "backend_p99us", "sum_ratio", "backend_dom%",
                "retained"});
  for (uint32_t rep = 0; rep < reps; ++rep) {
    StageResult s = run_stages(nodes, stage_cfg, ycfg, stage_ops);
    st_ratio.push_back(s.stage_sum_ratio);
    st_dom.push_back(s.backend_dom_pct);
    st_retained.push_back(s.retained);
    st_e2e_p50.push_back(s.e2e_p50_us);
    st_e2e_p99.push_back(s.e2e_p99_us);
    for (size_t i = 0; i < obs::kNumJourneyStages; ++i) {
      st_p50[i].push_back(s.p50_us[i]);
      st_p99[i].push_back(s.p99_us[i]);
    }
    const size_t bk = static_cast<size_t>(obs::JourneyStage::kBackend);
    print_row(1, {s.p50_us[bk], s.p99_us[bk], s.stage_sum_ratio, s.backend_dom_pct,
                  s.retained},
              "%14.2f");
    if (dump && rep == 0) {
      if (obs::journey_collector().dump_json("serve_slow.json"))
        std::printf("journey dump: wrote serve_slow.json\n");
    }
  }
  for (size_t i = 0; i < obs::kNumJourneyStages; ++i) {
    const std::string st = obs::journey_stage_name(static_cast<obs::JourneyStage>(i));
    report.add("stages", st + "_p50_us", "us", st_p50[i]);
    report.add("stages", st + "_p99_us", "us", st_p99[i]);
  }
  report.add("stages", "e2e_p50_us", "us", st_e2e_p50);
  report.add("stages", "e2e_p99_us", "us", st_e2e_p99);
  report.add("stages", "stage_sum_ratio", "ratio", st_ratio);
  report.add("stages", "backend_dom_pct", "pct", st_dom);
  report.add("stages", "retained", "count", st_retained);

  // Profiling-overhead phase: the same closed-loop pipelined workload with
  // the sampling profiler disarmed vs armed at the always-on default (97 Hz
  // cpu mode). The gated metric is throughput retention, not latency — a
  // profiler that costs cycles shows up directly as lost ops/s.
  if (profile) {
    YcsbConfig pcfg = ycfg;
    pcfg.ops_per_thread = env_u64("DARRAY_BENCH_PROF_OPS", 4000);
    ServeConfig psrv = base;
    psrv.worker_delay_ns = 0;  // real CPU work only: overhead has nowhere to hide
    std::vector<double> prof_off_ops, prof_on_ops;
    print_header("profiler overhead, closed loop, " + std::to_string(nodes) + " nodes",
                 {"profiler", "ops_per_s"});
    for (uint32_t rep = 0; rep < reps; ++rep) {
      {
        Fleet f(nodes, psrv, pcfg);
        const double ops = run_ycsb_serve(f.svc, pcfg, /*window=*/8).kops * 1e3;
        prof_off_ops.push_back(ops);
        print_row(0, {ops}, "%14.0f");
      }
      {
        Fleet f(nodes, psrv, pcfg);
        obs::ProfilerOptions po;  // the always-on defaults (config defaults)
        if (!obs::profiler_start(po))
          std::fprintf(stderr, "serve_soak: profiler_start failed\n");
        const double ops = run_ycsb_serve(f.svc, pcfg, /*window=*/8).kops * 1e3;
        obs::profiler_stop();
        prof_on_ops.push_back(ops);
        print_row(1, {ops}, "%14.0f");
      }
    }
    report.add("profile_off", "ops_per_s", "ops/s", prof_off_ops);
    report.add("profile_on", "ops_per_s", "ops/s", prof_on_ops);

    // Artifact run at a higher rate so the dump has a meaningful sample
    // population: scripts/validate_collapsed.py asserts the folded output
    // parses and that the tx drain and dispatcher workers show up by name.
    {
      Fleet f(nodes, psrv, pcfg);
      obs::ProfilerOptions po;
      po.hz = static_cast<uint32_t>(env_u64("DARRAY_PROF_ARTIFACT_HZ", 499));
      if (obs::profiler_start(po)) {
        run_ycsb_serve(f.svc, pcfg, /*window=*/8);
        obs::profiler_stop();
        if (obs::dump_profile("serve_profile.prof"))
          std::printf("profile dump: wrote serve_profile.prof\n");
        std::ofstream out("serve_profile.collapsed");
        out << obs::profiler_collapsed();
        std::printf("profile dump: wrote serve_profile.collapsed\n");
        const obs::ProfileTotals pt = obs::profile_totals();
        std::printf("profile totals: samples %llu dropped %llu signals %llu "
                    "unattributed %llu rings %llu\n",
                    static_cast<unsigned long long>(pt.samples),
                    static_cast<unsigned long long>(pt.dropped),
                    static_cast<unsigned long long>(pt.signals),
                    static_cast<unsigned long long>(pt.unattributed),
                    static_cast<unsigned long long>(pt.rings));
      }
    }
  }

  {
    // A fresh fleet whose registry still has live serve counters: embed the
    // snapshot in the report and (with --metrics-dump) render the exposition
    // exactly as /metrics would serve it.
    Fleet f(nodes, base, ycfg);
    Client cli = Client::connect(f.svc, {.node = 0});
    std::string v;
    cli.get(ycsb_key(1), v);
    report.set_stats(f.cluster.stats());
    if (dump) {
      std::ofstream out("serve_metrics.prom");
      out << obs::render_prometheus(f.cluster.stats());
      std::printf("metrics dump: wrote serve_metrics.prom\n");
    }
  }

  if (!report.write()) return 1;
  std::printf("\nexpected shape: with admission on, p99 of served requests stays "
              "bounded and overload turns into explicit kBusy sheds; with it off, "
              "the queue (and every latency percentile) grows with the run. The "
              "hot-key cache lifts the zipfian head out of the storage engine.\n");
  return 0;
}
