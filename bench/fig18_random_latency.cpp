// Figure 18 (limitations): average latency of uniformly RANDOM (a) Read
// (b) Write (c) Operate as the node count grows — the poor-locality regime
// where DArray's cache stops helping.
//
// Paper shape: on one node DArray ≈ BCL and beats GAM (lock-free path); as
// nodes grow, BCL stays flat at the RDMA round trip while DArray/GAM climb
// above it (coherence protocol + eviction overhead on cache-hostile access),
// with random writes costlier than reads.
#include <map>
#include <span>

#include "bench/bench_util.hpp"
#include "baselines/bcl/bcl_array.hpp"
#include "baselines/gam/gam_array.hpp"
#include "common/rng.hpp"
#include "core/darray.hpp"

using namespace darray;
using namespace darray::bench;

namespace {

void add_fn(uint64_t& a, uint64_t b) { a += b; }
uint64_t add_fn_gam(uint64_t a, uint64_t b) { return a + b; }

enum class Op { kRead, kWrite, kOperate };

std::vector<std::vector<uint64_t>> random_streams(uint32_t nodes, uint64_t total,
                                                  uint64_t ops) {
  std::vector<std::vector<uint64_t>> idx(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    Xoshiro256 rng(77 + n);
    idx[n].reserve(ops);
    for (uint64_t i = 0; i < ops; ++i) idx[n].push_back(rng.next_below(total));
  }
  return idx;
}

double run(const std::string& sys, uint32_t nodes, Op op) {
  rt::Cluster cluster(bench_cfg(nodes));
  const uint64_t total = elems_per_node() * nodes;
  const uint64_t ops = env_u64("DARRAY_BENCH_RAND_OPS", 3000);
  const auto idx = random_streams(nodes, total, ops);

  if (sys == "darray") {
    auto arr = DArray<uint64_t>::create(cluster, total);
    const auto add = arr.register_op(&add_fn, 0);
    return measure_avg_ns(cluster, ops, [&](rt::NodeId n, uint64_t i) {
      const uint64_t k = idx[n][i];
      switch (op) {
        case Op::kRead: {
          volatile uint64_t v = arr.get(k);
          (void)v;
          break;
        }
        case Op::kWrite: arr.set(k, i); break;
        case Op::kOperate: arr.apply(k, add, 1); break;
      }
    });
  }
  if (sys == "gam") {
    auto arr = gam::GamArray<uint64_t>::create(cluster, total);
    return measure_avg_ns(cluster, ops, [&](rt::NodeId n, uint64_t i) {
      const uint64_t k = idx[n][i];
      switch (op) {
        case Op::kRead: {
          volatile uint64_t v = arr.get(k);
          (void)v;
          break;
        }
        case Op::kWrite: arr.set(k, i); break;
        case Op::kOperate: arr.atomic_rmw(k, &add_fn_gam, 1); break;
      }
    });
  }
  auto arr = bcl::BclArray<uint64_t>::create(cluster, total);
  return measure_avg_ns(cluster, ops, [&](rt::NodeId n, uint64_t i) {
    const uint64_t k = idx[n][i];
    if (op == Op::kRead) {
      volatile uint64_t v = arr.get(k);
      (void)v;
    } else {
      arr.set(k, i);
    }
  });
}

void panel(const char* title, Op op, const std::vector<uint64_t>& node_counts) {
  const bool has_bcl = op != Op::kOperate;
  print_header(title, has_bcl ? std::vector<std::string>{"nodes", "DArray", "GAM", "BCL"}
                              : std::vector<std::string>{"nodes", "DArray", "GAM"});
  for (uint64_t n : node_counts) {
    std::vector<double> row{run("darray", static_cast<uint32_t>(n), op),
                            run("gam", static_cast<uint32_t>(n), op)};
    if (has_bcl) row.push_back(run("bcl", static_cast<uint32_t>(n), op));
    print_row(n, row, "%14.0f");
  }
}

// --- --sweep / --json: runtime-level bulk range sweep ------------------------
// get_range bandwidth + p99 vs extent size over a two-node cluster with
// 128 KiB chunks (16384 × 8 B), large enough that every remote chunk fill
// rides the engine's protocol choice (docs/perf.md): staged frames when
// rendezvous is disabled (the pre-engine "eager" config), one-sided READ
// pulls when enabled. Extents are chunk-aligned and each chunk is read cold
// exactly once, so the numbers are pure remote-fill bandwidth.

constexpr uint32_t kSweepChunkElems = 16384;  // 128 KiB chunks
constexpr uint32_t kSweepMinSize = 4096;
constexpr uint32_t kSweepMaxSize = 4u << 20;

std::vector<uint32_t> sweep_sizes() {
  std::vector<uint32_t> sizes;
  for (uint32_t s = kSweepMinSize; s <= kSweepMaxSize; s *= 4) sizes.push_back(s);
  return sizes;
}

// Chunks consumed per extent and cold-fill iterations per size point: aim
// for ~32 chunk fills per point so every point moves a comparable volume.
uint32_t extent_chunks(uint32_t size) {
  constexpr uint32_t chunk_bytes = kSweepChunkElems * sizeof(uint64_t);
  return (size + chunk_bytes - 1) / chunk_bytes;
}
uint32_t sweep_iters(uint32_t size) {
  return std::max(2u, 32u / extent_chunks(size));
}

// One full pass (fresh cluster, every extent cold): appends one bandwidth
// sample per size and the per-get_range latencies to `lat_ns`.
void sweep_pass(bool rndz, std::map<uint32_t, std::vector<double>>& bw,
                std::map<uint32_t, std::vector<uint64_t>>& lat_ns) {
  const std::vector<uint32_t> sizes = sweep_sizes();
  uint64_t total_chunks = 0;
  for (const uint32_t s : sizes) total_chunks += uint64_t{sweep_iters(s)} * extent_chunks(s);

  rt::ClusterConfig cfg = bench_cfg(2);
  cfg.chunk_elems = kSweepChunkElems;
  cfg.cachelines_per_region = 64;
  cfg.rendezvous_enabled = rndz;
  rt::Cluster cluster(cfg);
  auto arr = DArray<uint64_t>::create(cluster, 2 * total_chunks * kSweepChunkElems);

  // Node 0 seeds its whole subarray home-locally (no traffic); node 1 then
  // walks it one cold chunk-aligned extent at a time.
  std::thread seed([&] {
    bind_thread(cluster, 0);
    std::vector<uint64_t> in(kSweepChunkElems);
    for (uint64_t c = 0; c < total_chunks; ++c) {
      for (uint32_t i = 0; i < kSweepChunkElems; ++i) in[i] = c * kSweepChunkElems + i;
      arr.set_range(c * kSweepChunkElems, std::span<const uint64_t>(in));
    }
  });
  seed.join();
  std::thread read([&] {
    bind_thread(cluster, 1);
    std::vector<uint64_t> out(kSweepMaxSize / sizeof(uint64_t));
    uint64_t next_chunk = 0;
    for (const uint32_t size : sizes) {
      const uint32_t elems = size / sizeof(uint64_t);
      const uint32_t iters = sweep_iters(size);
      const uint64_t t0 = now_ns();
      for (uint32_t it = 0; it < iters; ++it) {
        const uint64_t ts0 = now_ns();
        arr.get_range(next_chunk * kSweepChunkElems, std::span<uint64_t>(out.data(), elems));
        lat_ns[size].push_back(now_ns() - ts0);
        next_chunk += extent_chunks(size);
      }
      const double secs = static_cast<double>(now_ns() - t0) / 1e9;
      bw[size].push_back(static_cast<double>(iters) * static_cast<double>(size) / secs /
                         1e6);
    }
  });
  read.join();
}

std::string size_tag(uint32_t size) {
  return size >= (1u << 20) ? std::to_string(size >> 20) + "m"
                            : std::to_string(size >> 10) + "k";
}

int sweep_main(bool json) {
  JsonReport report("fig18_random_latency", json);
  const uint32_t reps = json ? bench_reps() : 1;
  std::map<std::string, std::map<uint32_t, std::vector<double>>> bw;
  std::map<std::string, std::map<uint32_t, std::vector<uint64_t>>> lat_ns;
  for (const bool rndz : {false, true}) {
    const std::string cfg = rndz ? "rndz" : "eager";
    for (uint32_t r = 0; r < reps; ++r) sweep_pass(rndz, bw[cfg], lat_ns[cfg]);
  }
  if (!json)
    std::printf("=== fig18 (--sweep): remote get_range bandwidth, eager vs "
                "rendezvous ===\n\n%-10s %14s %14s %14s %14s\n", "size",
                "eager MB/s", "rndz MB/s", "eager p99 ns", "rndz p99 ns");
  for (const uint32_t size : sweep_sizes()) {
    double med[2], p99[2];
    for (const bool rndz : {false, true}) {
      const std::string cfg = rndz ? "rndz" : "eager";
      med[rndz] = report.add(cfg, "range_bw_mbps_" + size_tag(size), "MB/s",
                             bw[cfg][size]);
      p99[rndz] = static_cast<double>(sample_percentile_ns(lat_ns[cfg][size], 0.99));
      report.add(cfg, "range_p99_ns_" + size_tag(size), "ns", {p99[rndz]});
    }
    if (!json)
      std::printf("%-10s %14.1f %14.1f %14.0f %14.0f\n", size_tag(size).c_str(),
                  med[0], med[1], p99[0], p99[1]);
  }
  if (json) {
    // A stats block from a small rendezvous-active cluster so the report
    // passes check_bench_report.py's observability requirement.
    rt::ClusterConfig cfg = bench_cfg(2);
    cfg.chunk_elems = kSweepChunkElems;
    rt::Cluster cluster(cfg);
    auto arr = DArray<uint64_t>::create(cluster, 2 * kSweepChunkElems);
    std::thread seed([&] {
      bind_thread(cluster, 0);
      std::vector<uint64_t> in(kSweepChunkElems, 7);
      arr.set_range(0, std::span<const uint64_t>(in));
    });
    seed.join();
    std::thread read([&] {
      bind_thread(cluster, 1);
      std::vector<uint64_t> out(kSweepChunkElems);
      arr.get_range(0, std::span<uint64_t>(out));
    });
    read.join();
    report.set_stats(cluster.stats());
  }
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--json")) return sweep_main(true);
  if (has_flag(argc, argv, "--sweep")) return sweep_main(false);
  std::vector<uint64_t> node_counts;
  for (uint64_t n = 1; n <= max_nodes(); ++n) node_counts.push_back(n);

  std::printf("=== Figure 18: random access latency (ns/op, 1 thread/node) ===\n");
  panel("(a) Read", Op::kRead, node_counts);
  panel("(b) Write", Op::kWrite, node_counts);
  panel("(c) Operate", Op::kOperate, node_counts);
  std::printf("\nexpected shape: single-node DArray <= BCL < GAM; multi-node BCL stays "
              "near the fabric round trip while DArray/GAM rise above it; writes cost "
              "more than reads.\n");
  return 0;
}
