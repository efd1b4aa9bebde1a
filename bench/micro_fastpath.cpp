// Google-benchmark microbenchmarks of the data access fast path (§4.1): the
// per-op cost of DArray get/set/apply against a native array, the pinned
// variant, and the GAM-style locked path — the "minimal overhead" claim
// behind Fig. 1's single-machine bars (one atomic read + two atomic writes +
// branches, and zero atomics under a pin).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "baselines/gam/gam_array.hpp"
#include "bench/bench_util.hpp"
#include "common/wait.hpp"
#include "core/darray.hpp"
#include "net/comm_layer.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

using namespace darray;

namespace {

// One shared single-node cluster for all fast-path benches (setup is heavy).
struct Fixture {
  rt::Cluster cluster;
  DArray<uint64_t> arr;
  gam::GamArray<uint64_t> gam_arr;
  OpHandle<uint64_t> add;

  static rt::ClusterConfig cfg() {
    rt::ClusterConfig c;
    c.num_nodes = 1;
    // The live sampler runs during every measurement here on purpose: the
    // fast-path numbers are taken with telemetry on, so its cost (one
    // snapshot per 100 ms on a background thread) is bounded by the
    // telemetry-off baseline staying within the noise band. Set
    // DARRAY_TELEMETRY=0 for the off-baseline when measuring that bound.
    c.telemetry_enabled = bench::env_u64("DARRAY_TELEMETRY", 1) != 0;
    c.telemetry_sample_ns = bench::env_u64("DARRAY_TELEMETRY_SAMPLE_NS", 100'000'000);
    return c;
  }

  Fixture() : cluster(cfg()) {
    arr = DArray<uint64_t>::create(cluster, 1 << 16);
    gam_arr = gam::GamArray<uint64_t>::create(cluster, 1 << 16);
    add = arr.register_op(+[](uint64_t& a, uint64_t v) { a += v; }, 0);
    bind_thread(cluster, 0);
  }

  static Fixture& get() {
    static Fixture f;
    return f;
  }
};

constexpr uint64_t kMask = (1 << 16) - 1;

void BM_NativeArrayRead(benchmark::State& state) {
  std::vector<uint64_t> v(1 << 16, 1);
  uint64_t i = 0, sum = 0;
  for (auto _ : state) {
    sum += v[i++ & kMask];
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NativeArrayRead);

void BM_DArrayGet(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  uint64_t i = 0, sum = 0;
  for (auto _ : state) {
    sum += f.arr.get(i++ & kMask);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DArrayGet);

void BM_DArrayGetPinned(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  f.arr.pin(0, PinMode::kRead);
  const uint64_t chunk_mask = f.arr.meta().chunk_elems - 1;
  uint64_t i = 0, sum = 0;
  for (auto _ : state) {
    sum += f.arr.get(i++ & chunk_mask);  // stays inside the pinned chunk
    benchmark::DoNotOptimize(sum);
  }
  f.arr.unpin(0);
}
BENCHMARK(BM_DArrayGetPinned);

void BM_GamGetLocked(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  uint64_t i = 0, sum = 0;
  for (auto _ : state) {
    sum += f.gam_arr.get(i++ & kMask);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GamGetLocked);

void BM_DArraySet(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  uint64_t i = 0;
  for (auto _ : state) {
    f.arr.set(i & kMask, i);
    ++i;
  }
}
BENCHMARK(BM_DArraySet);

void BM_DArrayApplyLocal(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  uint64_t i = 0;
  for (auto _ : state) {
    f.arr.apply(i & kMask, f.add, 1);
    ++i;
  }
}
BENCHMARK(BM_DArrayApplyLocal);

void BM_GamAtomicRmwLocal(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  uint64_t i = 0;
  for (auto _ : state)
    f.gam_arr.atomic_rmw(i++ & kMask, +[](uint64_t a, uint64_t v) { return a + v; }, 1);
}
BENCHMARK(BM_GamAtomicRmwLocal);

void BM_DArrayWlockUnlock(benchmark::State& state) {
  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  uint64_t i = 0;
  for (auto _ : state) {
    f.arr.wlock(i & kMask);
    f.arr.unlock(i & kMask);
    ++i;
  }
}
BENCHMARK(BM_DArrayWlockUnlock);

// --- --json mode: small-message engine throughput ----------------------------
// Raw two-node comm-layer pair (no runtime on top), so the numbers isolate
// the per-message Tx/Rx software cost the coalescing engine attacks. The
// coalesce-off config reproduces the pre-coalescing engine's wire behaviour
// and serves as the recorded baseline.

// One fabric + two comm layers; dispatch at node 1 counts (flood) or echoes
// back (pingpong), dispatch at node 0 counts replies.
struct CommPairBench {
  rt::ClusterConfig cfg;
  rdma::Fabric fabric;
  rdma::Device* d0;
  rdma::Device* d1;
  std::atomic<int> rx0{0}, rx1{0};
  bool echo = false;
  std::unique_ptr<net::CommLayer> c0, c1;

  explicit CommPairBench(bool coalesce, bool echo_mode) : echo(echo_mode) {
    cfg.num_nodes = 2;
    cfg.coalesce_enabled = coalesce;
    d0 = fabric.create_device(0);
    d1 = fabric.create_device(1);
    c0 = std::make_unique<net::CommLayer>(0, 2, cfg, d0, [this](net::RpcMessage&&) {
      rx0.fetch_add(1, std::memory_order_release);
      rx0.notify_all();
    });
    c1 = std::make_unique<net::CommLayer>(1, 2, cfg, d1, [this](net::RpcMessage&& m) {
      if (echo) {
        net::TxRequest r;
        r.dst = 0;
        r.hdr.type = net::MsgType::kInvAck;
        r.hdr.chunk = m.hdr.chunk;
        c1->post(std::move(r));
      }
      rx1.fetch_add(1, std::memory_order_release);
      rx1.notify_all();
    });
    auto [qa, qb] = fabric.connect(d0, c0->send_cq(), c0->recv_cq(), d1, c1->send_cq(),
                                   c1->recv_cq());
    c0->set_qp(1, qa);
    c1->set_qp(0, qb);
    c0->start();
    c1->start();
  }

  ~CommPairBench() {
    c0->stop();
    c1->stop();
  }
};

// One-way small-message throughput: node 0 floods header-only protocol
// messages, clock stops when node 1 has dispatched them all.
double flood_mops(bool coalesce, int msgs) {
  CommPairBench p(coalesce, /*echo_mode=*/false);
  const uint64_t t0 = now_ns();
  for (int i = 0; i < msgs; ++i) {
    net::TxRequest t;
    t.dst = 1;
    t.hdr.type = net::MsgType::kInvAck;
    t.hdr.chunk = static_cast<uint64_t>(i);
    p.c0->post(std::move(t));
  }
  spin_wait_until(p.rx1, [msgs](int v) { return v >= msgs; });
  const uint64_t t1 = now_ns();
  return static_cast<double>(msgs) / (static_cast<double>(t1 - t0) / 1e9) / 1e6;
}

// Serial round trips: no packing opportunity, so this isolates the fixed
// per-message path cost (doorbell wakeups, buffer staging, dispatch).
double pingpong_rtt_ns(bool coalesce, int rtts) {
  CommPairBench p(coalesce, /*echo_mode=*/true);
  const uint64_t t0 = now_ns();
  for (int i = 0; i < rtts; ++i) {
    net::TxRequest t;
    t.dst = 1;
    t.hdr.type = net::MsgType::kInvAck;
    t.hdr.chunk = static_cast<uint64_t>(i);
    p.c0->post(std::move(t));
    spin_wait_until(p.rx0, [i](int v) { return v >= i + 1; });
  }
  const uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(rtts);
}

// --- large-message engine sweep (--sweep / --json) ---------------------------
// Bulk transfer bandwidth vs size across the eager/rendezvous split
// (docs/perf.md, "Large-message engine"). Two configs over the same raw
// comm-layer pair:
//   eager  the pre-engine large-message behaviour: the payload is fragmented
//          into <= 8 KiB staged SEND frames (copied through the Tx arena and
//          the Rx payload pool), one dispatch per frame;
//   rndz   one TxRequest carrying the registered source (data_src): the
//          engine picks zero-copy eager WRITE below the threshold and the
//          negotiated one-sided READ pull at or above it.
// The crossover recorded in BENCH_micro_fastpath.json sets the default
// rendezvous_threshold_bytes; CI gates rndz >= 2x eager at 1 MiB.

constexpr uint32_t kSweepMax = 4 << 20;   // 4 MiB
constexpr uint32_t kSweepFrame = 8192;    // staged-SEND frame payload

struct BulkPairBench {
  rt::ClusterConfig cfg;
  rdma::Fabric fabric;
  rdma::Device* d0;
  rdma::Device* d1;
  std::atomic<int> rx1{0};
  std::unique_ptr<net::CommLayer> c0, c1;
  std::vector<std::byte> src, dst;
  rdma::MemoryRegion ms, md;

  explicit BulkPairBench(bool rndz) : src(kSweepMax), dst(kSweepMax) {
    cfg.num_nodes = 2;
    cfg.chunk_elems = kSweepFrame / 8;  // frame payloads fit one send buffer
    cfg.rendezvous_enabled = rndz;
    d0 = fabric.create_device(0);
    d1 = fabric.create_device(1);
    c0 = std::make_unique<net::CommLayer>(0, 2, cfg, d0, [](net::RpcMessage&&) {});
    c1 = std::make_unique<net::CommLayer>(1, 2, cfg, d1, [this](net::RpcMessage&&) {
      rx1.fetch_add(1, std::memory_order_release);
      rx1.notify_all();
    });
    ms = d0->reg_mr(src.data(), src.size());
    md = d1->reg_mr(dst.data(), dst.size());
    for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 31);
    auto [qa, qb] = fabric.connect(d0, c0->send_cq(), c0->recv_cq(), d1, c1->send_cq(),
                                   c1->recv_cq());
    c0->set_qp(1, qa);
    c1->set_qp(0, qb);
    c0->start();
    c1->start();
  }

  ~BulkPairBench() {
    c0->stop();
    c1->stop();
  }
};

// Serial bulk transfers of `size` bytes; returns MB/s and appends the
// per-transfer completion latency (post to final dispatch) to `lat_ns`.
double bulk_bw_mbps(BulkPairBench& p, uint32_t size, std::vector<uint64_t>& lat_ns) {
  const int iters = static_cast<int>(std::clamp<uint64_t>(
      bench::env_u64("DARRAY_BENCH_SWEEP_BYTES", 8u << 20) / size, 4, 512));
  int expect = p.rx1.load(std::memory_order_acquire);
  const uint64_t t0 = now_ns();
  for (int it = 0; it < iters; ++it) {
    const uint64_t ts = now_ns();
    if (p.cfg.rendezvous_enabled) {
      // One registered-source request: the engine selects the protocol.
      net::TxRequest t;
      t.dst = 1;
      t.hdr.type = net::MsgType::kReadData;
      t.hdr.chunk = static_cast<uint64_t>(it);
      t.data_src = p.src.data();
      t.data_len = size;
      t.data_lkey = p.ms.lkey;
      t.data_remote_addr = reinterpret_cast<uint64_t>(p.dst.data());
      t.data_rkey = p.md.rkey;
      p.c0->post(std::move(t));
      expect += 1;
    } else {
      // Pre-engine framing: stage the bytes through <= 8 KiB payload SENDs.
      for (uint32_t off = 0; off < size; off += kSweepFrame) {
        const uint32_t n = std::min(kSweepFrame, size - off);
        net::TxRequest t;
        t.dst = 1;
        t.hdr.type = net::MsgType::kReadData;
        t.hdr.chunk = static_cast<uint64_t>(it);
        t.payload.assign(p.src.data() + off, n);
        p.c0->post(std::move(t));
        expect += 1;
      }
    }
    spin_wait_until(p.rx1, [expect](int v) { return v >= expect; });
    lat_ns.push_back(now_ns() - ts);
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(iters) * static_cast<double>(size) / secs / 1e6;
}

std::string size_tag(uint32_t size) {
  if (size >= (1u << 20)) return std::to_string(size >> 20) + "m";
  if (size >= 1024) return std::to_string(size >> 10) + "k";
  return std::to_string(size) + "b";
}

std::vector<uint32_t> sweep_sizes() {
  std::vector<uint32_t> sizes;
  for (uint32_t s = 256; s <= kSweepMax; s *= 4) sizes.push_back(s);
  return sizes;
}

// Runs the sweep into the report (or a printed table when the report is
// disabled) and returns the per-(config, size) median bandwidths.
void run_bulk_sweep(bench::JsonReport& report) {
  if (!report.enabled())
    std::printf("\n%-10s %14s %14s %14s %14s\n", "size", "eager MB/s", "rndz MB/s",
                "eager p99 ns", "rndz p99 ns");
  for (const uint32_t size : sweep_sizes()) {
    double bw[2] = {0, 0}, p99[2] = {0, 0};
    for (const bool rndz : {false, true}) {
      const std::string cfg = rndz ? "rndz" : "eager";
      std::vector<uint64_t> lat_ns;
      bw[rndz] = report.measure(cfg, "bulk_bw_mbps_" + size_tag(size), "MB/s", [&] {
        BulkPairBench p(rndz);
        return bulk_bw_mbps(p, size, lat_ns);
      });
      p99[rndz] = static_cast<double>(bench::sample_percentile_ns(std::move(lat_ns), 0.99));
      report.add(cfg, "bulk_p99_ns_" + size_tag(size), "ns", {p99[rndz]});
    }
    if (!report.enabled())
      std::printf("%-10s %14.1f %14.1f %14.0f %14.0f\n", size_tag(size).c_str(),
                  bw[0], bw[1], p99[0], p99[1]);
  }
}

int sweep_main() {
  std::printf("=== micro_fastpath (--sweep): bulk bandwidth, eager vs rendezvous ===\n");
  bench::JsonReport report("micro_fastpath", false);
  run_bulk_sweep(report);
  return 0;
}

int json_main() {
  bench::JsonReport report("micro_fastpath", true);
  const int msgs = static_cast<int>(bench::env_u64("DARRAY_BENCH_MSGS", 30000));
  const int rtts = static_cast<int>(bench::env_u64("DARRAY_BENCH_RTTS", 2000));

  // Baseline first (coalesce_off ≡ pre-coalescing engine), then current.
  for (const bool coalesce : {false, true}) {
    const std::string cfg = coalesce ? "coalesce_on" : "coalesce_off";
    report.measure(cfg, "smallmsg_flood", "Mops/s", [&] { return flood_mops(coalesce, msgs); });
    report.measure(cfg, "smallmsg_pingpong", "ns/rtt",
                   [&] { return pingpong_rtt_ns(coalesce, rtts); });
  }

  // Large-message sweep: per-size bulk bandwidth + p99 for the eager
  // (staged-SEND) and rendezvous configs, the crossover behind the default
  // rendezvous_threshold_bytes. CI gates rndz >= 2x eager at 1 MiB.
  run_bulk_sweep(report);

  // Single-node access fast path (the paper's "minimal overhead" claim), for
  // drift tracking alongside the message-path numbers.
  {
    Fixture& f = Fixture::get();
    bind_thread(f.cluster, 0);
    constexpr uint64_t kOps = 1 << 20;
    report.measure("fastpath", "darray_get", "ns/op", [&] {
      const uint64_t t0 = now_ns();
      uint64_t sum = 0;
      for (uint64_t i = 0; i < kOps; ++i) sum += f.arr.get(i & kMask);
      benchmark::DoNotOptimize(sum);
      return static_cast<double>(now_ns() - t0) / static_cast<double>(kOps);
    });
    report.measure("fastpath", "darray_set", "ns/op", [&] {
      const uint64_t t0 = now_ns();
      for (uint64_t i = 0; i < kOps; ++i) f.arr.set(i & kMask, i);
      return static_cast<double>(now_ns() - t0) / static_cast<double>(kOps);
    });
  }

  const net::PayloadPoolStats ps = net::payload_pool_stats();
  std::printf("payload pool: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(ps.hits),
              static_cast<unsigned long long>(ps.misses));

  // A short traced pass so the report's stats block carries hist.* latency
  // percentiles. It runs after (never during) the gated measurements above —
  // tracing stays off while the flood/pingpong/fastpath numbers are taken.
  // The named-baseline delta isolates what this pass alone added.
  {
    Fixture& f = Fixture::get();
    bind_thread(f.cluster, 0);
    f.cluster.mark_stats_baseline("pre_traced_pass");
    obs::set_tracing(true);
    if (obs::tracing_enabled()) {
      constexpr uint64_t kTracedOps = 1 << 14;
      uint64_t sum = 0;
      for (uint64_t i = 0; i < kTracedOps; ++i) {
        f.arr.set(i & kMask, i);
        sum += f.arr.get(i & kMask);
      }
      benchmark::DoNotOptimize(sum);
    }
    obs::set_tracing(false);
    const obs::StatsSnapshot d = f.cluster.stats_delta_since("pre_traced_pass");
    std::printf("traced pass delta: %llu gets (p99 %llu ns), %llu sets (p99 %llu ns)\n",
                static_cast<unsigned long long>(d.value_or("hist.op.get.count")),
                static_cast<unsigned long long>(d.value_or("hist.op.get.p99_ns")),
                static_cast<unsigned long long>(d.value_or("hist.op.set.count")),
                static_cast<unsigned long long>(d.value_or("hist.op.set.p99_ns")));
  }

  // Unified counters from the fixture cluster ride along in the report, so
  // counter drift (extra misses, lost coalescing) diffs with the numbers.
  report.set_stats(Fixture::get().cluster.stats());
  // And the sampler's rings: how the run unfolded over time, not just the
  // end state. Kept to the headline families so the report stays diffable.
  if (const obs::TimeSeriesStore* ts = Fixture::get().cluster.timeseries()) {
    std::vector<obs::TimeSeriesStore::Series> series;
    for (const char* prefix : {"runtime.", "fabric.", "hist.op.", "duty."})
      for (auto& s : ts->collect(prefix))
        series.push_back(std::move(s));
    report.set_series(Fixture::get().cluster.config().telemetry_sample_ns,
                      std::move(series));
  }
  return report.write() ? 0 : 1;
}

// --hist: the single-node access fast path under tracing, as distributions.
// Where the google-benchmark tables above report a mean, this shows the shape
// — a fast-path p50 of tens of ns with a p999 tail from combine flushes and
// allocation slow paths.
int hist_main() {
  std::printf("=== micro_fastpath (--hist): fast-path latency distributions ===\n");
  obs::set_tracing(true);
  if (!obs::tracing_enabled()) {
    std::printf("--hist: tracing is compiled out (DARRAY_TRACING=0); nothing to do\n");
    return 1;
  }
  obs::set_tracing(false);
  obs::reset_latency_histograms();

  Fixture& f = Fixture::get();
  bind_thread(f.cluster, 0);
  constexpr uint64_t kOps = 1 << 16;
  obs::set_tracing(true);
  uint64_t sum = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    f.arr.set(i & kMask, i);
    sum += f.arr.get(i & kMask);
    f.arr.apply(i & kMask, f.add, 1);
  }
  benchmark::DoNotOptimize(sum);
  obs::set_tracing(false);

  std::printf("\nper-op latency (%llu ops each):\n",
              static_cast<unsigned long long>(kOps));
  for (uint8_t k = 0; k < static_cast<uint8_t>(obs::OpKind::kMaxOpKind); ++k) {
    const auto kind = static_cast<obs::OpKind>(k);
    const obs::HistogramSnapshot h = obs::op_latency_snapshot(kind);
    if (h.count == 0) continue;
    std::printf("  %-10s %s\n", obs::op_kind_name(kind), h.summary().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::register_current_thread("main");
  // --profile arms the sampling profiler (always-on defaults, cpu mode) for
  // the whole run — same spirit as the telemetry-on measurement policy above —
  // then writes micro_profile.prof + micro_profile.collapsed on exit.
  const bool profile = bench::has_flag(argc, argv, "--profile");
  if (profile && !obs::profiler_start(obs::ProfilerOptions{}))
    std::fprintf(stderr, "micro_fastpath: profiler_start failed\n");
  int rc = 0;
  if (bench::has_flag(argc, argv, "--json")) {
    rc = json_main();
  } else if (bench::has_flag(argc, argv, "--sweep")) {
    rc = sweep_main();
  } else if (bench::has_flag(argc, argv, "--hist")) {
    rc = hist_main();
  } else {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (profile) {
    obs::profiler_stop();
    if (obs::dump_profile("micro_profile.prof"))
      std::printf("profile dump: wrote micro_profile.prof\n");
    std::ofstream out("micro_profile.collapsed");
    out << obs::profiler_collapsed();
    std::printf("profile dump: wrote micro_profile.collapsed\n");
  }
  return rc;
}
