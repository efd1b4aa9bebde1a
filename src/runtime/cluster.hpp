// The simulated cluster: fabric, nodes, the operator registry, and collective
// array creation. One Cluster per process stands in for the paper's testbed;
// "nodes" are thread bundles joined by the simulated RDMA fabric.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "chaos/fault_injector.hpp"
#include "common/config.hpp"
#include "common/spinlock.hpp"
#include "net/comm_layer.hpp"
#include "obs/inflight.hpp"
#include "obs/stats_registry.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "rdma/fabric.hpp"
#include "runtime/array_meta.hpp"
#include "runtime/node.hpp"
#include "runtime/op_registry.hpp"

namespace darray::rt {

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  rdma::Fabric& fabric() { return fabric_; }
  uint32_t num_nodes() const { return cfg_.num_nodes; }
  NodeRuntime& node(NodeId i) { return *nodes_[i]; }

  // §4.3: register an associative + commutative operator; the returned id is
  // valid cluster-wide.
  uint16_t register_op(OpDesc desc) { return ops_.register_op(std::move(desc)); }
  const OpDesc& op(uint16_t id) const { return ops_.get(id); }

  // Collective array creation (paper Fig. 3 constructor). `partition` is the
  // optional partition_offset argument: element start offset per node,
  // chunk-aligned; empty means an even chunk-granular split.
  const ArrayMeta* create_array(uint64_t n_elems, uint32_t elem_size,
                                std::span<const uint64_t> partition = {});

  // Cluster-wide runtime-layer counters (approximate while traffic is live).
  RuntimeStats runtime_stats() const {
    RuntimeStats s;
    for (const auto& n : nodes_) s += n->runtime_stats();
    return s;
  }

  // Present iff cfg.fault_plan named an enabled plan at construction.
  chaos::FaultInjector* fault_injector() { return injector_.get(); }

  // Unified observability: every layer's counters under dotted names
  // (fabric.*, runtime.*, coherence.*, duty.*, cache.*, hist.*, pool.*,
  // chaos.*, comm.*, trace.*). snapshot() is safe while traffic is live;
  // values are then approximate per-counter.
  obs::StatsSnapshot stats() const { return stats_registry_.snapshot(); }
  // Extend with harness-specific sources (add_source) before reporting.
  obs::StatsRegistry& stats_registry() { return stats_registry_; }
  // Named-baseline deltas (satellite of the obs v2 PR): mark, run a phase,
  // then read only what that phase added.
  void mark_stats_baseline(const std::string& tag) { stats_registry_.mark_baseline(tag); }
  obs::StatsSnapshot stats_delta_since(const std::string& tag) const {
    return stats_registry_.delta_since(tag);
  }

  // --- live telemetry (cfg.telemetry_enabled) --------------------------------
  // The sampler's per-metric rings: counters as per-interval deltas,
  // percentile entries as point series. Null when telemetry is off.
  const obs::TimeSeriesStore* timeseries() const { return timeseries_.get(); }
  // The embedded /metrics listener. Null unless cfg.telemetry_serve and the
  // socket actually bound (a taken port logs an error instead of aborting).
  obs::TelemetryServer* telemetry_server() { return telemetry_server_.get(); }
  // Actual bound port (resolves cfg.telemetry_port == 0), or 0 if not serving.
  uint16_t telemetry_port() const {
    return telemetry_server_ ? telemetry_server_->port() : 0;
  }

  // --- slow-op watchdog (cfg.watchdog_enabled) -------------------------------
  // One in-flight API op exceeding cfg.watchdog_deadline_ns is reported
  // exactly once: by default its full cross-node correlated trace chain is
  // dumped to stderr as one structured JSON line; a handler installed here
  // replaces the dump. The handler runs on the watchdog thread and must not
  // block on the data path.
  struct WatchdogReport {
    uint64_t corr = 0;
    uint64_t start_ns = 0;
    uint64_t age_ns = 0;
    uint64_t index = 0;
    obs::OpKind kind = obs::OpKind::kGet;
    uint16_t node = 0;
  };
  using WatchdogFn = std::function<void(const WatchdogReport&)>;
  void set_watchdog_handler(WatchdogFn fn) {
    std::lock_guard lk(watchdog_mu_);
    watchdog_fn_ = std::move(fn);
  }
  uint64_t watchdog_reports() const {
    return watchdog_reports_.load(std::memory_order_relaxed);
  }

  // Unrecoverable comm failures (retry/deadline budget exhausted) land here,
  // on the thread running the failing node's Tx pass. Default: log + abort
  // (fail-stop) — the coherence protocol cannot survive a dropped message.
  // Override before traffic for tests/harnesses that expect losses. The
  // handler must not block.
  using CommErrorFn = std::function<void(uint32_t node, const net::CommError&)>;
  void set_comm_error_handler(CommErrorFn fn) { comm_error_fn_ = std::move(fn); }
  void handle_comm_error(uint32_t node, const net::CommError& err);
  uint64_t comm_error_count() const {
    return comm_errors_.load(std::memory_order_relaxed);
  }

 private:
  void register_default_stats_sources();
  void watchdog_main();
  void sampler_main();
  void dump_slow_op(const WatchdogReport& r);

  ClusterConfig cfg_;
  rdma::Fabric fabric_;
  obs::StatsRegistry stats_registry_;
  std::unique_ptr<chaos::FaultInjector> injector_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  OpRegistry ops_;
  SpinLock create_mu_;
  std::vector<std::unique_ptr<ArrayMeta>> metas_;
  CommErrorFn comm_error_fn_;
  std::atomic<uint64_t> comm_errors_{0};

  mutable SpinLock watchdog_mu_;   // guards watchdog_fn_
  WatchdogFn watchdog_fn_;
  std::atomic<uint64_t> watchdog_reports_{0};
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_thread_;

  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  std::unique_ptr<obs::TelemetryServer> telemetry_server_;
  std::atomic<bool> sampler_stop_{false};
  std::atomic<uint64_t> last_sample_ns_{0};  // /healthz sampler-lag probe
  std::thread sampler_thread_;

  // True when this cluster armed the continuous profiler (profiler_enabled)
  // and must disarm it before joining its threads.
  bool profiler_owned_ = false;
};

}  // namespace darray::rt
