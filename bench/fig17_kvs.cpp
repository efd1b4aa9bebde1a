// Figure 17: YCSB throughput (Kops/s) of the DArray-based KVS vs the
// GAM-based KVS, sweeping threads per node and the get ratio
// (Zipfian 0.99, the paper's six-node setup scaled by DARRAY_BENCH_NODES).
// Both engines are driven through the darray::Client serve path — the same
// front door applications use — so the comparison includes session and
// dispatch overhead on both sides.
//
// Paper shape: DArray-KVS wins everywhere — 20x-41x at 100% gets, 2x-3.8x
// under PUT-heavy contention — with better thread scaling (lock-free access
// path vs per-access locks).
#include "bench/bench_util.hpp"
#include "kvs/kvs.hpp"
#include "serve/ycsb_serve.hpp"

using namespace darray;
using namespace darray::bench;
using namespace darray::kvs;
using namespace darray::serve;

namespace {

template <typename Kvs>
double run(uint32_t nodes, uint32_t threads, double get_ratio) {
  rt::Cluster cluster(bench_cfg(nodes));
  KvsConfig kcfg;
  kcfg.n_main_buckets = 1 << 10;
  kcfg.byte_capacity = 32ull << 20;
  ServeConfig scfg;
  scfg.accept_queue_cap = 0;  // closed loop: measure raw path, don't shed
  scfg.workers_per_node = std::max<uint32_t>(1, threads / 2);
  auto svc = KvsService::create(cluster, Kvs::create(cluster, kcfg), scfg);
  YcsbConfig cfg;
  cfg.n_keys = env_u64("DARRAY_BENCH_KEYS", 4000);
  cfg.get_ratio = get_ratio;
  cfg.threads_per_node = threads;
  cfg.ops_per_thread = env_u64("DARRAY_BENCH_KVS_OPS", 20000);
  ycsb_load_serve(svc, cfg);
  const double kops = run_ycsb_serve(svc, cfg).kops;
  svc.shutdown();
  return kops;
}

}  // namespace

int main() {
  const uint32_t nodes = std::min<uint32_t>(3, max_nodes());
  std::vector<uint64_t> threads;
  for (uint64_t t = 1; t <= max_threads(); t *= 2) threads.push_back(t);
  const double ratios[] = {1.0, 0.95, 0.5};

  std::printf("=== Figure 17: KVS YCSB throughput (Kops/s), zipfian 0.99, %u nodes, "
              "serve path ===\n",
              nodes);
  for (double ratio : ratios) {
    char title[64];
    std::snprintf(title, sizeof(title), "get ratio = %.0f%%", ratio * 100);
    print_header(title, {"threads", "DArray-KVS", "GAM-KVS", "speedup"});
    for (uint64_t t : threads) {
      const double d = run<DKvs>(nodes, static_cast<uint32_t>(t), ratio);
      const double g = run<GamKvs>(nodes, static_cast<uint32_t>(t), ratio);
      print_row(t, {d, g, d / g}, "%14.1f");
    }
  }
  std::printf("\nexpected shape: both engines sit on the same substrate, and every "
              "request runs on its key's owner node (inline for the owner's own "
              "clients, over the fabric for the rest), so the fabric round trip "
              "both pay dwarfs the sub-microsecond access-path gap and speedup "
              "hovers near 1x on this host (EXPERIMENTS.md fig17: honest "
              "divergence); the paper's 20x-41x gap comes from GAM's heavier "
              "access path, isolated by micro_fastpath instead.\n");
  return 0;
}
