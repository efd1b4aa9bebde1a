#include "runtime/cluster.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "chaos/fault_plan.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "net/payload_buf.hpp"
#include "obs/compute_stats.hpp"
#include "obs/journey.hpp"
#include "obs/profiler.hpp"
#include "obs/thread_registry.hpp"
#include "obs/trace.hpp"

namespace darray::rt {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg), fabric_(rdma::FabricConfig{cfg.fabric_latency_ns, cfg.fabric_ns_per_byte}) {
  if (const std::string err = cfg_.validate(); !err.empty()) {
    DLOG_ERROR("invalid ClusterConfig: %s", err.c_str());
    std::abort();
  }
  // Observability: size the trace rings and flip the runtime gate before any
  // node thread spins up, so the first traced op lands in a ring of the
  // configured size. With DARRAY_TRACING=0 both calls are no-ops.
  if (cfg_.trace_ring_events != 0)
    obs::set_trace_ring_capacity(cfg_.trace_ring_events);
  if (cfg_.tracing_enabled) obs::set_tracing(true);
  // Fault injection: attach before any device/QP exists so every WR ever
  // posted consults the injector. A null or all-zero plan costs nothing.
  if (cfg_.fault_plan != nullptr && cfg_.fault_plan->enabled()) {
    injector_ = std::make_unique<chaos::FaultInjector>(*cfg_.fault_plan);
    fabric_.set_fault_injector(injector_.get());
  }
  register_default_stats_sources();
  nodes_.reserve(cfg_.num_nodes);
  for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
    rdma::Device* dev = fabric_.create_device(i);
    nodes_.push_back(std::make_unique<NodeRuntime>(this, i, dev, cfg_));
  }
  // Full-mesh RC connections, one QP pair per ordered node pair (networking
  // thread design: QP count independent of application thread count — §4.5).
  for (NodeId a = 0; a < cfg_.num_nodes; ++a) {
    for (NodeId b = a + 1; b < cfg_.num_nodes; ++b) {
      net::CommLayer& ca = nodes_[a]->comm();
      net::CommLayer& cb = nodes_[b]->comm();
      auto [qa, qb] = fabric_.connect(nodes_[a]->device(), ca.send_cq(), ca.recv_cq(),
                                      nodes_[b]->device(), cb.send_cq(), cb.recv_cq());
      ca.set_qp(b, qa);
      cb.set_qp(a, qb);
    }
  }
  for (auto& n : nodes_) n->start();
  // The watchdog only reads the leaked obs registries, so it can outlive any
  // individual node thread; it starts last and stops first regardless.
  if (cfg_.watchdog_enabled)
    watchdog_thread_ = std::thread([this] { watchdog_main(); });
  // Live telemetry: the sampler snapshots the registry (which walks nodes_),
  // so it starts after the nodes and stops before them; the HTTP listener
  // snapshots too, so it brackets the sampler the same way.
  if (cfg_.telemetry_enabled) {
    timeseries_ = std::make_unique<obs::TimeSeriesStore>(cfg_.telemetry_ring_samples);
    if (cfg_.telemetry_serve) {
      obs::TelemetryServer::Options o;
      o.port = cfg_.telemetry_port;
      o.snapshot = [this] { return stats(); };
      o.store = timeseries_.get();
      const uint64_t start_ns = now_ns();
      o.healthz = [this, start_ns] {
        const uint64_t now = now_ns();
        const uint64_t last = last_sample_ns_.load(std::memory_order_relaxed);
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "{\"status\": \"ok\", \"nodes\": %u, \"uptime_ns\": %llu, "
                      "\"sampler_samples\": %llu, \"sampler_lag_ns\": %llu}\n",
                      cfg_.num_nodes, static_cast<unsigned long long>(now - start_ns),
                      static_cast<unsigned long long>(timeseries_->samples()),
                      static_cast<unsigned long long>(last ? now - last : 0));
        return std::string(buf);
      };
      auto server = std::make_unique<obs::TelemetryServer>(std::move(o));
      // A taken port is an operator inconvenience, not a correctness problem:
      // keep running without the listener rather than failing the cluster.
      if (server->start()) telemetry_server_ = std::move(server);
    }
    // The meta source captures raw pointers rather than reading the
    // unique_ptrs: the sampler and serve threads snapshot concurrently with
    // this constructor, and the owning pointers are not theirs to inspect.
    obs::TimeSeriesStore* ts = timeseries_.get();
    obs::TelemetryServer* srv = telemetry_server_.get();
    stats_registry_.add_source([ts, srv](obs::StatsSnapshot& s) {
      s.add("telemetry.samples", ts->samples());
      if (srv != nullptr) s.add("telemetry.requests", srv->requests());
    });
    sampler_thread_ = std::thread([this] { sampler_main(); });
  }
  // Continuous profiling: armed last, once every long-lived thread above has
  // registered (threads registering later still get rings on the fly). The
  // destructor disarms it before joining anything — the wall-mode ticker
  // signals registered threads and must never outlive them.
  if (cfg_.profiler_enabled) {
    obs::ProfilerOptions po;
    po.mode = obs::ProfileMode::kCpu;
    po.hz = cfg_.profiler_hz;
    po.max_frames = cfg_.profiler_max_frames;
    po.ring_samples = cfg_.profiler_ring_samples;
    if (!obs::profiler_start(po))
      DLOG_ERROR("profiler_enabled but profiler_start failed (session busy?)");
    else
      profiler_owned_ = true;
  }
}

Cluster::~Cluster() {
  // Disarm the sampling profiler before joining any thread it may signal.
  if (profiler_owned_) obs::profiler_stop();
  // Stop (join) the serving thread before touching the unique_ptr: both the
  // sampler and the serve thread read telemetry_server_ through the meta
  // stats source, so the pointer itself must stay unmodified until both are
  // joined.
  if (telemetry_server_) telemetry_server_->stop();
  if (sampler_thread_.joinable()) {
    sampler_stop_.store(true, std::memory_order_release);
    sampler_thread_.join();
  }
  telemetry_server_.reset();
  if (watchdog_thread_.joinable()) {
    watchdog_stop_.store(true, std::memory_order_release);
    watchdog_thread_.join();
  }
  for (auto& n : nodes_) n->stop();
}

void Cluster::sampler_main() {
  obs::register_current_thread("sampler");
  uint64_t next_sample = now_ns();  // first point immediately: t=0 baseline
  while (!sampler_stop_.load(std::memory_order_acquire)) {
    const uint64_t now = now_ns();
    if (now < next_sample) {
      // Short sleep slices so ~Cluster joins promptly at long sample periods.
      const uint64_t left = next_sample - now;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(left < 10'000'000 ? left : 10'000'000));
      continue;
    }
    next_sample = now + cfg_.telemetry_sample_ns;
    timeseries_->record(now, stats_registry_.snapshot());
    last_sample_ns_.store(now, std::memory_order_relaxed);
  }
}

void Cluster::watchdog_main() {
  obs::register_current_thread("watchdog");
  uint64_t next_scan = now_ns() + cfg_.watchdog_poll_ns;
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    // Sleep in short slices so stop() joins promptly even with a long poll.
    const uint64_t now = now_ns();
    if (now < next_scan) {
      const uint64_t left = next_scan - now;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(left < 10'000'000 ? left : 10'000'000));
      continue;
    }
    next_scan = now + cfg_.watchdog_poll_ns;
    WatchdogFn fn;
    {
      std::lock_guard lk(watchdog_mu_);
      fn = watchdog_fn_;
    }
    obs::watchdog_scan(now, cfg_.watchdog_deadline_ns, [&](const obs::SlowOp& op) {
      WatchdogReport r;
      r.corr = op.corr;
      r.start_ns = op.start_ns;
      r.age_ns = now > op.start_ns ? now - op.start_ns : 0;
      r.index = op.index;
      r.kind = op.kind;
      r.node = op.node;
      watchdog_reports_.fetch_add(1, std::memory_order_relaxed);
      if (fn)
        fn(r);
      else
        dump_slow_op(r);
    });
  }
}

// Default slow-op report: one structured JSON line on stderr carrying the
// op's identity and its full correlated trace chain (every ring, every node —
// MsgHeader.trace propagation makes remote-side work match the corr id).
void Cluster::dump_slow_op(const WatchdogReport& r) {
  std::string chain;
  char buf[192];
  size_t n_events = 0;
  for (const obs::TraceEvent& e : obs::collect_trace()) {
    if (e.corr != r.corr) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"t\": %llu, \"ev\": \"%s\", \"k\": %u, \"node\": %u, \"a\": %u, "
                  "\"b\": %llu, \"r\": %u}",
                  n_events ? ", " : "", static_cast<unsigned long long>(e.ts_ns),
                  obs::ev_name(e.ev), e.kind, e.node, e.a,
                  static_cast<unsigned long long>(e.b), e.ring);
    chain += buf;
    ++n_events;
  }
  std::fprintf(stderr,
               "{\"watchdog_slow_op\": {\"corr\": %llu, \"op\": \"%s\", \"node\": %u, "
               "\"index\": %llu, \"age_ms\": %.1f, \"events\": %zu, \"chain\": [%s]}}\n",
               static_cast<unsigned long long>(r.corr), obs::op_kind_name(r.kind), r.node,
               static_cast<unsigned long long>(r.index),
               static_cast<double>(r.age_ns) / 1e6, n_events, chain.c_str());
}

// The default sources: one per layer, each flattening its counter struct
// under a dotted prefix. Captures `this`; the registry dies with the cluster.
void Cluster::register_default_stats_sources() {
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    const rdma::FabricStats f = fabric_.stats();
    s.add("fabric.writes", f.writes);
    s.add("fabric.reads", f.reads);
    s.add("fabric.sends", f.sends);
    s.add("fabric.bytes_written", f.bytes_written);
    s.add("fabric.bytes_read", f.bytes_read);
    s.add("fabric.bytes_sent", f.bytes_sent);
    s.add("fabric.wc_errors", f.wc_errors);
    s.add("fabric.rnr_events", f.rnr_events);
    s.add("fabric.retries", f.retries);
    s.add("fabric.flushed_wrs", f.flushed_wrs);
    s.add("fabric.coalesced_frames", f.coalesced_frames);
    s.add("fabric.batched_posts", f.batched_posts);
    s.add("fabric.rndz_transfers", f.rndz_transfers);
    s.add("fabric.bytes_rndz", f.bytes_rndz);
  });
  // Large-message engine plane (docs/perf.md): rendezvous negotiations summed
  // across every node's comm layer. started − completed − fallbacks = leases
  // currently pinned; bytes is the rendezvous subset of bulk traffic.
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    net::CommLayer::RndzStats total;
    for (const auto& n : nodes_) {
      const net::CommLayer::RndzStats r = n->comm().rndz_stats();
      total.started += r.started;
      total.completed += r.completed;
      total.fallbacks += r.fallbacks;
      total.bytes += r.bytes;
    }
    s.add("net.rndz.started", total.started);
    s.add("net.rndz.completed", total.completed);
    s.add("net.rndz.fallbacks", total.fallbacks);
    s.add("net.rndz.bytes", total.bytes);
  });
  // Who ran the passes (docs/perf.md). Tx: passes run inline by posting or
  // waiting threads, and how many of them left work (arena, recovery,
  // rendezvous) to the progress thread. Rx: receive iterations run by
  // waiting application threads and by the progress thread. Runtime:
  // submissions whose thread ran the engine pass itself, and those left to
  // another thread's pass.
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    net::CommLayer::TxPassStats total;
    net::CommLayer::RxPassStats rx;
    RuntimeStats rt;
    for (const auto& n : nodes_) {
      const net::CommLayer::TxPassStats t = n->comm().tx_pass_stats();
      total.inline_passes += t.inline_passes;
      total.handoffs += t.handoffs;
      const net::CommLayer::RxPassStats r = n->comm().rx_pass_stats();
      rx.caller_passes += r.caller_passes;
      rx.progress_passes += r.progress_passes;
      rt += n->runtime_stats();
    }
    s.add("net.tx.inline_passes", total.inline_passes);
    s.add("net.tx.handoffs", total.handoffs);
    s.add("net.rx.caller_passes", rx.caller_passes);
    s.add("net.rx.progress_passes", rx.progress_passes);
    s.add("runtime.inline_passes", rt.inline_passes);
    s.add("runtime.handoffs", rt.handoffs);
  });
  // Per-node plane for live dashboards (darray-top): traffic split by node so
  // a hot or faulted node stands out from the cluster-wide sums below.
  // node.<i>.ops counts traced API ops recorded on node i (zero with tracing
  // off — the histograms are the only per-node op tally); the runtime
  // counters are always live.
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    for (uint32_t i = 0; i < cfg_.num_nodes; ++i) {
      uint64_t ops = 0;
      for (size_t k = 0; k < static_cast<size_t>(obs::OpKind::kMaxOpKind); ++k)
        ops += obs::op_latency_snapshot(static_cast<obs::OpKind>(k),
                                        static_cast<uint16_t>(i))
                   .count;
      const RuntimeStats r = nodes_[i]->runtime_stats();
      const std::string p = "node." + std::to_string(i) + ".";
      s.add(p + "ops", ops);
      s.add(p + "remote_reqs", r.remote_reqs);
      s.add(p + "local_misses",
            r.local_read_misses + r.local_write_misses + r.local_operate_misses);
      s.add(p + "fills", r.fills);
      s.add(p + "invalidations", r.invalidations);
      // Outbound protocol bytes by transfer mechanism (truthful bulk-path
      // accounting: eager WRITEs and rendezvous pulls are tallied apart).
      uint64_t tx_send = 0, tx_write = 0, tx_rndz = 0;
      for (uint32_t peer = 0; peer < cfg_.num_nodes; ++peer) {
        if (peer == i) continue;
        const net::CommLayer::PeerTxBytes b = nodes_[i]->comm().peer_tx_bytes(peer);
        tx_send += b.send_bytes;
        tx_write += b.write_bytes;
        tx_rndz += b.rndz_bytes;
      }
      s.add(p + "tx_send_bytes", tx_send);
      s.add(p + "tx_write_bytes", tx_write);
      s.add(p + "tx_rndz_bytes", tx_rndz);
    }
  });
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    const RuntimeStats r = runtime_stats();
    s.add("runtime.local_read_misses", r.local_read_misses);
    s.add("runtime.local_write_misses", r.local_write_misses);
    s.add("runtime.local_operate_misses", r.local_operate_misses);
    s.add("runtime.prefetches_issued", r.prefetches_issued);
    s.add("runtime.fills", r.fills);
    s.add("runtime.invalidations", r.invalidations);
    s.add("runtime.fetches", r.fetches);
    s.add("runtime.flush_reqs", r.flush_reqs);
    s.add("runtime.evict_clean", r.evict_clean);
    s.add("runtime.evict_writeback", r.evict_writeback);
    s.add("runtime.evict_opflush", r.evict_opflush);
    s.add("runtime.remote_reqs", r.remote_reqs);
    s.add("runtime.txns", r.txns);
    s.add("runtime.op_flushes_applied", r.op_flushes_applied);
    s.add("runtime.combine_flushes", r.combine_flushes);
    s.add("runtime.lock_acquires", r.lock_acquires);
    s.add("runtime.lock_waits", r.lock_waits);
    s.add("runtime.reduce_parts_rx", r.reduce_parts_rx);
  });
  // Array-compute plane (src/compute): cursor chunking, overlap hit rate, and
  // reduction-tree traffic. Process-global like pool.* — the compute layer
  // sits above the runtime, so the counters live in obs (see compute_stats.hpp).
  stats_registry_.add_source([](obs::StatsSnapshot& s) {
    const obs::ComputeCounters& c = obs::compute_counters();
    s.add("compute.chunks", c.chunks.load(std::memory_order_relaxed));
    s.add("compute.prefetch_hits", c.prefetch_hits.load(std::memory_order_relaxed));
    s.add("compute.prefetch_misses", c.prefetch_misses.load(std::memory_order_relaxed));
    s.add("compute.reduce_msgs", c.reduce_msgs.load(std::memory_order_relaxed));
    s.add("compute.collectives", c.collectives.load(std::memory_order_relaxed));
  });
  // Coherence plane: per-target-state dentry transition tallies, summed over
  // every array × node × chunk. The walk takes create_mu_ so the meta/state
  // lists are stable; the counters themselves are relaxed single-writer.
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    uint64_t by_state[kNumDentryStates] = {};
    {
      std::scoped_lock lk(create_mu_);
      for (const auto& meta : metas_) {
        for (const auto& n : nodes_) {
          const NodeArrayState* st = n->array_state(meta->id);
          if (st == nullptr) continue;
          for (const Dentry& d : st->dentries)
            for (size_t i = 0; i < kNumDentryStates; ++i)
              by_state[i] += d.transition_count(static_cast<DentryState>(i));
        }
      }
    }
    for (size_t i = 0; i < kNumDentryStates; ++i)
      s.add(std::string("coherence.enter_") +
                dentry_state_name(static_cast<DentryState>(i)),
            by_state[i]);
  });
  // Duty cycle of each node's one service thread, the comm progress thread.
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    obs::DutyStats rx;
    for (const auto& n : nodes_) rx += n->comm().duty().sample();
    s.add("duty.rx.busy_ns", rx.busy_ns);
    s.add("duty.rx.idle_ns", rx.idle_ns);
    s.add("duty.rx.parks", rx.parks);
  });
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    CacheRegionStats c;
    for (const auto& n : nodes_) c += n->cache_stats();
    s.add("cache.allocs", c.allocs);
    s.add("cache.alloc_failures", c.alloc_failures);
    s.add("cache.releases", c.releases);
    s.add("cache.deferred_releases", c.deferred_releases);
  });
  // Latency histograms (process-global registries; empty cells are skipped so
  // an untraced run adds no hist.* entries at all).
  stats_registry_.add_source([](obs::StatsSnapshot& s) {
    for (size_t k = 0; k < static_cast<size_t>(obs::OpKind::kMaxOpKind); ++k) {
      const auto kind = static_cast<obs::OpKind>(k);
      const obs::HistogramSnapshot h = obs::op_latency_snapshot(kind);
      if (h.count == 0) continue;
      s.add_histogram(std::string("hist.op.") + obs::op_kind_name(kind), h);
    }
    for (uint32_t c = 0; c < net::kNumMsgClasses; ++c) {
      const obs::HistogramSnapshot h = obs::msg_class_snapshot(static_cast<uint8_t>(c));
      if (h.count == 0) continue;
      s.add_histogram(std::string("hist.msg.") +
                          net::msg_class_name(static_cast<uint8_t>(c)),
                      h);
    }
    // Serve-path stage breakdown (obs v4). Same skip-if-empty rule: a cluster
    // with no serving front door adds no hist.stage.* entries.
    auto& jc = obs::journey_collector();
    for (size_t st = 0; st < obs::kNumJourneyStages; ++st) {
      const auto stage = static_cast<obs::JourneyStage>(st);
      const obs::HistogramSnapshot h = jc.stage_snapshot(stage);
      if (h.count == 0) continue;
      s.add_histogram(std::string("hist.stage.") + obs::journey_stage_name(stage), h);
    }
    if (jc.completed() != 0 || jc.retained() != 0) {
      s.add("journey.completed", jc.completed());
      s.add("journey.retained", jc.retained());
      s.add("journey.threshold_ns.gauge", jc.threshold_ns());
    }
  });
  if (cfg_.watchdog_enabled) {
    stats_registry_.add_source([this](obs::StatsSnapshot& s) {
      s.add("watchdog.reports", watchdog_reports());
    });
  }
  stats_registry_.add_source([](obs::StatsSnapshot& s) {
    const net::PayloadPoolStats p = net::payload_pool_stats();
    s.add("pool.hits", p.hits);
    s.add("pool.misses", p.misses);
  });
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    s.add("comm.dropped_requests", comm_error_count());
  });
  stats_registry_.add_source([this](obs::StatsSnapshot& s) {
    if (injector_ == nullptr) return;  // chaos.* only when a plan is armed
    const chaos::FaultCounters c = injector_->counters();
    s.add("chaos.wc_errors", c.wc_errors);
    s.add("chaos.rnr_rejections", c.rnr_rejections);
    s.add("chaos.delays", c.delays);
    s.add("chaos.blackholed", c.blackholed);
    s.add("chaos.paused", c.paused);
  });
  stats_registry_.add_source([](obs::StatsSnapshot& s) {
    const obs::TraceTotals t = obs::trace_totals();
    s.add("trace.recorded", t.recorded);
    s.add("trace.retained", t.retained);
    s.add("trace.dropped", t.dropped);
    s.add("trace.rings", t.rings);
  });
  // Sampling-profiler plane (docs/observability.md v5). All zero while no
  // session has ever run; signals − samples − unattributed ≈ deliveries the
  // handler declined (profiler momentarily off).
  stats_registry_.add_source([](obs::StatsSnapshot& s) {
    const obs::ProfileTotals p = obs::profile_totals();
    s.add("profile.samples", p.samples);
    s.add("profile.dropped", p.dropped);
    s.add("profile.signals", p.signals);
    s.add("profile.unattributed", p.unattributed);
    s.add("profile.rings", p.rings);
  });
}

void Cluster::handle_comm_error(uint32_t node, const net::CommError& err) {
  comm_errors_.fetch_add(1, std::memory_order_relaxed);
  if (comm_error_fn_) {
    comm_error_fn_(node, err);
    return;
  }
  // Fail-stop: a dropped protocol message would wedge the coherence protocol
  // (a requester parks forever on a reply that never comes), so dying loudly
  // here beats hanging silently there.
  DLOG_ERROR("node %u: abandoning message to peer %u (%s, %s after %u attempts) — "
             "fail-stop; install a comm error handler to override",
             node, err.peer, err.reason, rdma::wc_status_name(err.status), err.attempts);
  std::abort();
}

const ArrayMeta* Cluster::create_array(uint64_t n_elems, uint32_t elem_size,
                                       std::span<const uint64_t> partition) {
  DARRAY_ASSERT(n_elems > 0);
  DARRAY_ASSERT_MSG(elem_size == 1 || elem_size == 2 || elem_size == 4 || elem_size == 8,
                    "element size must be 1/2/4/8 bytes (see DESIGN.md §6)");
  std::scoped_lock lk(create_mu_);
  DARRAY_ASSERT_MSG(metas_.size() < kMaxArrays, "array id space exhausted");

  auto meta = std::make_unique<ArrayMeta>();
  meta->id = static_cast<ArrayId>(metas_.size());
  meta->n_elems = n_elems;
  meta->elem_size = elem_size;
  meta->chunk_elems = cfg_.chunk_elems;
  meta->n_chunks = (n_elems + cfg_.chunk_elems - 1) / cfg_.chunk_elems;

  const uint32_t n = cfg_.num_nodes;
  meta->chunk_begin.resize(n + 1);
  meta->elem_begin.resize(n + 1);
  if (partition.empty()) {
    // Even chunk-granular split (paper default).
    for (uint32_t i = 0; i <= n; ++i)
      meta->chunk_begin[i] = meta->n_chunks * i / n;
  } else {
    DARRAY_ASSERT_MSG(partition.size() == n, "partition needs one offset per node");
    DARRAY_ASSERT(partition[0] == 0);
    for (uint32_t i = 0; i < n; ++i) {
      DARRAY_ASSERT_MSG(partition[i] % cfg_.chunk_elems == 0,
                        "partition offsets must be chunk-aligned");
      meta->chunk_begin[i] = partition[i] / cfg_.chunk_elems;
      if (i > 0) DARRAY_ASSERT(meta->chunk_begin[i] >= meta->chunk_begin[i - 1]);
    }
    meta->chunk_begin[n] = meta->n_chunks;
  }
  for (uint32_t i = 0; i <= n; ++i) {
    meta->elem_begin[i] = std::min<uint64_t>(meta->chunk_begin[i] * cfg_.chunk_elems, n_elems);
  }
  meta->elem_begin[n] = n_elems;

  // Per-node subarrays + MR registration (the "control plane exchange").
  meta->subarrays.resize(n);
  std::vector<std::unique_ptr<NodeArrayState>> states(n);
  for (NodeId i = 0; i < n; ++i) {
    auto st = std::make_unique<NodeArrayState>();
    st->meta = meta.get();
    st->node = i;
    const uint64_t bytes =
        std::max<uint64_t>(1, (meta->elem_begin[i + 1] - meta->elem_begin[i]) * elem_size);
    st->subarray = std::make_unique<std::byte[]>(bytes);
    std::memset(st->subarray.get(), 0, bytes);
    st->subarray_mr = nodes_[i]->device()->reg_mr(st->subarray.get(), bytes);
    meta->subarrays[i] = {reinterpret_cast<uint64_t>(st->subarray.get()),
                          st->subarray_mr.rkey};
    states[i] = std::move(st);
  }

  // Dentries: home chunks start writable (global Unshared), remote invalid.
  for (NodeId i = 0; i < n; ++i) {
    NodeArrayState& st = *states[i];
    st.dentries = std::vector<Dentry>(meta->n_chunks);
    st.ctl.resize(meta->n_chunks);
    for (ChunkId c = 0; c < meta->n_chunks; ++c) {
      Dentry& d = st.dentries[c];
      d.owner_bell = &nodes_[i]->comm().owner_bell();
      if (meta->home_of_chunk(c) == i) {
        d.is_home = true;
        d.data.store(st.chunk_data(c), std::memory_order_relaxed);
        d.state.store(DentryState::kWrite, std::memory_order_relaxed);
      }
    }
  }

  for (NodeId i = 0; i < n; ++i) nodes_[i]->install_array(meta->id, std::move(states[i]));
  metas_.push_back(std::move(meta));
  DLOG_INFO("created array %u: %llu elems x %uB, %llu chunks", metas_.back()->id,
            static_cast<unsigned long long>(n_elems), elem_size,
            static_cast<unsigned long long>(metas_.back()->n_chunks));
  return metas_.back().get();
}

}  // namespace darray::rt
