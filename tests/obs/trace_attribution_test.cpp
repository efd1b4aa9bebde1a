// End-to-end observability: the correlation id minted at the DArray API
// boundary must survive the LocalRequest → engine → comm layer → fabric
// journey, so a fault injected deep in the transport attributes back to the
// originating op, and Cluster::stats() must expose every layer's counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "core/darray.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::run_on_nodes;
using testing::small_cfg;

TEST(ClusterStats, SnapshotCoversEveryLayer) {
  rt::ClusterConfig cfg = small_cfg(2);
  rt::Cluster cluster(cfg);
  auto a = DArray<uint64_t>::create(cluster, 256);
  run_on_nodes(cluster, [&](rt::NodeId n) {
    for (uint64_t i = 0; i < 256; ++i) a.set(i, i + n);
  });
  const obs::StatsSnapshot s = cluster.stats();
  // Cross-node writes force remote misses, so traffic counters are nonzero.
  EXPECT_GT(s.value_or("fabric.sends"), 0u);
  EXPECT_GT(s.value_or("runtime.local_write_misses"), 0u);
  // Presence (not magnitude) for the rest of the unified plane.
  EXPECT_NE(s.find("fabric.bytes_sent"), nullptr);
  EXPECT_NE(s.find("runtime.fills"), nullptr);
  EXPECT_NE(s.find("pool.hits"), nullptr);
  EXPECT_NE(s.find("comm.dropped_requests"), nullptr);
  EXPECT_NE(s.find("runtime.inline_passes"), nullptr);
  EXPECT_NE(s.find("runtime.handoffs"), nullptr);
  EXPECT_NE(s.find("net.rx.caller_passes"), nullptr);
  EXPECT_NE(s.find("net.rx.progress_passes"), nullptr);
  EXPECT_NE(s.find("trace.recorded"), nullptr);
  // No chaos plan armed: the chaos.* block is absent, not zero-filled.
  EXPECT_EQ(s.find("chaos.rnr_rejections"), nullptr);
  // Custom sources extend the same snapshot.
  cluster.stats_registry().add_source(
      [](obs::StatsSnapshot& out) { out.add("harness.custom", 5); });
  EXPECT_EQ(cluster.stats().value_or("harness.custom"), 5u);
}

TEST(ClusterStats, ContinuousProfilerArmsAndExposesCounters) {
  {
    rt::ClusterConfig cfg = small_cfg(2);
    cfg.profiler_enabled = true;
    cfg.profiler_hz = 499;  // dense sampling so a short test still lands hits
    rt::Cluster cluster(cfg);
    EXPECT_TRUE(obs::profiler_running());
    auto a = DArray<uint64_t>::create(cluster, 256);
    run_on_nodes(cluster, [&](rt::NodeId n) {
      for (uint64_t i = 0; i < 2048; ++i) a.set(i % 256, i + n);
    });
    const obs::StatsSnapshot s = cluster.stats();
    // The profile.* plane is present and the registry saw the cluster's
    // named threads (each node's one service thread, net.<n>: 2 nodes' worth
    // of rings).
    EXPECT_NE(s.find("profile.samples"), nullptr);
    EXPECT_NE(s.find("profile.signals"), nullptr);
    EXPECT_NE(s.find("profile.unattributed"), nullptr);
    EXPECT_GE(s.value_or("profile.rings"), 2u);
  }  // cluster dtor disarms the session before joining its threads
  EXPECT_FALSE(obs::profiler_running());
}

#if DARRAY_TRACING

TEST(TraceAttribution, InjectedRnrRetryMapsBackToApiOp) {
  chaos::FaultPlan plan;
  plan.seed = 11;
  plan.p_rnr = 0.05;
  plan.rnr_window_ns = 50'000;

  obs::reset_trace();
  {
    rt::ClusterConfig cfg = small_cfg(2);
    cfg.fault_plan = &plan;
    cfg.tracing_enabled = true;
    rt::Cluster cluster(cfg);
    // 32 chunks per node: enough SENDs per QP that the seeded plan bites
    // however many protocol frames share one SEND.
    auto a = DArray<uint64_t>::create(cluster, 4096);
    run_on_nodes(cluster, [&](rt::NodeId n) {
      // Every op touches the other node's partition, so each one crosses the
      // wire and is exposed to the injector.
      const uint64_t base = a.local_begin(1 - n);
      for (uint64_t i = 0; i < 2048; ++i) {
        a.set(base + i, i);
        (void)a.get(base + i);
      }
    });
    ASSERT_GT(cluster.stats().value_or("chaos.rnr_rejections"), 0u)
        << "plan injected nothing; raise p_rnr or the op count";
  }  // all recording threads joined: rings are quiescent and exact
  obs::set_tracing(false);

  const std::vector<obs::TraceEvent> evs = obs::collect_trace();
  ASSERT_FALSE(evs.empty());

  std::unordered_map<uint64_t, obs::TraceEvent> begin_of;
  std::unordered_set<uint64_t> retried;
  for (const obs::TraceEvent& e : evs) {
    if (e.ev == obs::Ev::kOpBegin) begin_of[e.corr] = e;
    if (e.ev == obs::Ev::kRetry && e.corr != 0) retried.insert(e.corr);
  }

  int attributed = 0;
  for (const obs::TraceEvent& e : evs) {
    if (e.ev != obs::Ev::kFault || e.corr == 0) continue;
    if (static_cast<rdma::WcStatus>(e.kind) != rdma::WcStatus::kRnrError) continue;
    const auto it = begin_of.find(e.corr);
    if (it == begin_of.end() || !retried.count(e.corr)) continue;
    // The originating op is a real API-level op recorded on an app thread.
    const obs::TraceEvent& b = it->second;
    EXPECT_LT(b.kind, static_cast<uint8_t>(obs::OpKind::kMaxOpKind));
    EXPECT_LE(b.ts_ns, e.ts_ns);
    ++attributed;
  }
  EXPECT_GT(attributed, 0)
      << "no injected RNR retry could be walked back to a DArray op";
}

TEST(TraceDump, JsonRoundTripsEventCount) {
  obs::reset_trace();
  obs::set_tracing(true);
  for (int i = 0; i < 10; ++i)
    obs::trace(obs::Ev::kMiss, obs::new_corr_id(), 1, 0, 2, 3);
  obs::set_tracing(false);
  const char* path = "trace_dump_test.json";
  ASSERT_TRUE(obs::dump_trace_json(path));
  // Count event lines (one per line, by construction of the dump format).
  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  int events = 0;
  while (std::fgets(line, sizeof(line), f))
    if (std::strstr(line, "\"ev\": \"miss\"")) ++events;
  std::fclose(f);
  std::remove(path);
  EXPECT_EQ(events, 10);
}

#endif  // DARRAY_TRACING

}  // namespace
}  // namespace darray
