// Cluster-wide tunables. Defaults follow the paper where it states one
// (chunk = 512 elements, eviction watermarks 30 % / 50 %) and are sized for a
// small simulation host elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace darray::chaos {
struct FaultPlan;
}

namespace darray {

struct ClusterConfig {
  // --- topology -------------------------------------------------------------
  uint32_t num_nodes = 2;
  // The paper's runtime threads per node. Each node runs exactly one
  // coherence engine (DESIGN.md §6), so 1 is the only valid value; the field
  // stays for perfbench, which sets and reads it.
  uint32_t runtime_threads_per_node = 1;

  // --- array / cache --------------------------------------------------------
  uint32_t chunk_elems = 512;        // paper default granularity
  // Cachelines in each node's cache region (a cacheline holds one chunk).
  uint32_t cachelines_per_region = 256;
  double low_watermark = 0.30;       // start reclaiming below this free ratio
  double high_watermark = 0.50;      // reclaim until this free ratio
  uint32_t prefetch_chunks = 2;      // issued on the slow path (§4.2)

  // --- simulated fabric -----------------------------------------------------
  // One-way latency added to every fabric message, and per-byte cost modelling
  // link bandwidth. Zero by default: on an oversubscribed host the inherent
  // cross-thread hop cost already dwarfs real RDMA latency.
  uint64_t fabric_latency_ns = 0;
  double fabric_ns_per_byte = 0.0;
  uint32_t qp_depth = 1024;          // send/recv queue depth per QP
  uint32_t selective_signal_interval = 16;  // signal 1 of every r sends (§4.5)

  // --- small-message engine (docs/perf.md) ----------------------------------
  // Per-peer SEND coalescing: the Tx pass packs every protocol message it
  // finds queued for the same peer into one wire SEND (kBatch framing) and
  // rings the NIC doorbell once per peer per drain pass. Off restores the
  // one-SEND-per-message pre-coalescing path exactly.
  bool coalesce_enabled = true;
  uint32_t coalesce_max_frames = 32;   // frames per wire batch (cap)
  // Deadline cutoff: an open batch older than this is flushed even while the
  // drain pass is still finding work, so a latency-sensitive singleton is
  // never held behind a long burst.
  uint64_t coalesce_flush_ns = 20'000;

  // --- large-message engine (docs/perf.md) -----------------------------------
  // Eager/rendezvous protocol split: a bulk data transfer (a TxRequest
  // carrying a one-sided data WRITE) at least this large is negotiated as a
  // rendezvous instead — the sender pins the source region in a lease and
  // advertises {addr, rkey, len} in a small kRndzReq SEND; the receiver pulls
  // the bytes with MTU-chunked one-sided RDMA READs (one signaled completion)
  // and a kRndzFin releases the lease. Below the threshold (or with
  // rendezvous_enabled off) the existing eager WRITE+SEND path is used.
  // The default sits at the measured crossover of bench/micro_fastpath
  // --json's sweep (BENCH_micro_fastpath.json): eager wins below ~16 KiB,
  // rendezvous wins above.
  bool rendezvous_enabled = true;
  uint32_t rendezvous_threshold_bytes = 32 * 1024;
  // Per-WR segment size of the receiver's READ pull (the simulated fabric
  // accepts any WR size; chunking bounds per-WR latency and models real
  // NIC MTU segmentation at a coarser grain).
  uint32_t rendezvous_mtu_bytes = 64 * 1024;
  // Source-region lease table depth per comm layer. A sender with every
  // lease busy falls back to eager for the overflow transfer (counted in
  // net.rndz.fallbacks) instead of blocking the Tx pass.
  uint32_t rendezvous_max_leases = 32;

  // --- fault injection & recovery -------------------------------------------
  // Chaos plan consulted by the fabric on every posted WR. Non-owning; the
  // caller keeps the plan alive for the cluster's lifetime. nullptr (or a
  // plan with nothing enabled) leaves the fault path entirely cold.
  const chaos::FaultPlan* fault_plan = nullptr;
  // Comm-layer recovery: bounded exponential backoff between re-post rounds
  // for a peer whose QP errored, a per-request post-attempt budget, and a
  // per-request wall-clock deadline after which the request is failed to the
  // error handler instead of retried.
  uint32_t comm_max_attempts = 64;
  uint64_t comm_backoff_base_ns = 20'000;       // first retry delay
  uint64_t comm_backoff_cap_ns = 2'000'000;     // backoff ceiling
  uint64_t comm_deadline_ns = 10'000'000'000;   // 10 s per request

  // --- observability (docs/observability.md) --------------------------------
  // Runtime switch for the obs trace ring. With the DARRAY_TRACING compile
  // option off this flag is ignored; with it on but this flag false the only
  // per-event cost is one relaxed load + branch.
  bool tracing_enabled = false;
  // Per-thread trace ring capacity in events (rounded up to a power of two).
  // 0 keeps the built-in default (or DARRAY_TRACE_RING from the environment).
  uint32_t trace_ring_events = 0;
  // Slow-op watchdog: a Cluster-owned thread that polls the in-flight op
  // registry every watchdog_poll_ns and, for each API-level op older than
  // watchdog_deadline_ns, dumps its correlated trace chain exactly once (or
  // invokes the handler installed via Cluster::set_watchdog_handler).
  // Requires tracing_enabled — the registry is fed by traced op spans.
  bool watchdog_enabled = false;
  uint64_t watchdog_deadline_ns = 1'000'000'000;  // 1 s before an op is "slow"
  uint64_t watchdog_poll_ns = 10'000'000;         // scan cadence (10 ms)

  // --- live telemetry (docs/observability.md v3) ----------------------------
  // Continuous sampler: a Cluster thread snapshots the StatsRegistry every
  // telemetry_sample_ns into fixed-size per-metric rings (counters as
  // per-interval deltas, percentiles as point series). Off: no thread, no
  // rings, zero cost.
  bool telemetry_enabled = false;
  uint64_t telemetry_sample_ns = 100'000'000;  // 100 ms
  // Points retained per metric (rounded up to a power of two); the default
  // holds one minute of history at the default sample period.
  uint32_t telemetry_ring_samples = 600;
  // Embedded HTTP listener serving /metrics (Prometheus text exposition),
  // /stats.json, and /series.json. Loopback-only. Requires the sampler.
  bool telemetry_serve = false;
  uint16_t telemetry_port = 0;  // 0 = ephemeral; Cluster::telemetry_port()

  // --- continuous profiling (docs/observability.md v5) ----------------------
  // Always-on CPU sampling profiler (obs/profiler): SIGPROF at profiler_hz,
  // frame-pointer backtraces into per-thread sample rings, attributed to the
  // registered thread names. Off: no timer, no signal handler overhead; the
  // /profile telemetry endpoint can still run temporary sessions on demand.
  bool profiler_enabled = false;
  uint32_t profiler_hz = 97;          // off the 100 Hz timer-tick beat
  uint32_t profiler_max_frames = 32;  // backtrace depth cap per sample
  uint32_t profiler_ring_samples = 4096;  // per-thread ring capacity

  // --- derived --------------------------------------------------------------
  size_t chunk_bytes(size_t elem_size) const { return size_t{chunk_elems} * elem_size; }

  // Returns an empty string when the configuration is usable, otherwise a
  // description of the first problem found. Cluster's constructor calls this
  // and fail-stops on error; call it yourself to surface the message cleanly.
  std::string validate() const {
    if (num_nodes < 1 || num_nodes > 64)
      return "num_nodes must be in [1, 64], got " + std::to_string(num_nodes);
    if (runtime_threads_per_node != 1)
      return "runtime_threads_per_node must be 1 (each node runs one engine), got " +
             std::to_string(runtime_threads_per_node);
    if (chunk_elems == 0) return "chunk_elems must be > 0";
    if (cachelines_per_region == 0) return "cachelines_per_region must be > 0";
    if (!(low_watermark >= 0.0 && low_watermark <= 1.0))
      return "low_watermark must be in [0, 1]";
    if (!(high_watermark >= 0.0 && high_watermark <= 1.0))
      return "high_watermark must be in [0, 1]";
    if (low_watermark > high_watermark)
      return "low_watermark must not exceed high_watermark";
    if (qp_depth == 0) return "qp_depth must be > 0";
    if (selective_signal_interval == 0)
      return "selective_signal_interval must be > 0";
    if (selective_signal_interval > qp_depth)
      return "selective_signal_interval must not exceed qp_depth (the CQ could "
             "never retire a full unsignaled run)";
    if (coalesce_enabled && coalesce_max_frames == 0)
      return "coalesce_max_frames must be > 0 when coalescing is enabled";
    if (rendezvous_enabled && rendezvous_threshold_bytes == 0)
      return "rendezvous_threshold_bytes must be > 0 when rendezvous is "
             "enabled (a zero threshold would route empty transfers through "
             "the handshake)";
    if (rendezvous_enabled && rendezvous_mtu_bytes == 0)
      return "rendezvous_mtu_bytes must be > 0 when rendezvous is enabled";
    if (rendezvous_enabled && rendezvous_max_leases == 0)
      return "rendezvous_max_leases must be > 0 when rendezvous is enabled "
             "(an empty lease table would force every transfer to fall back)";
    if (comm_max_attempts == 0) return "comm_max_attempts must be > 0";
    if (comm_backoff_base_ns > comm_backoff_cap_ns)
      return "comm_backoff_base_ns must not exceed comm_backoff_cap_ns";
    if (watchdog_enabled && !tracing_enabled)
      return "watchdog_enabled requires tracing_enabled (the watchdog reads "
             "the traced in-flight op registry)";
    if (watchdog_enabled && watchdog_deadline_ns == 0)
      return "watchdog_deadline_ns must be > 0";
    if (watchdog_enabled && watchdog_poll_ns == 0)
      return "watchdog_poll_ns must be > 0";
    if (watchdog_enabled && watchdog_poll_ns > watchdog_deadline_ns)
      return "watchdog_poll_ns must not exceed watchdog_deadline_ns (an "
             "offender could outlive the op before the first scan)";
    if (telemetry_enabled && telemetry_sample_ns < 1'000'000)
      return "telemetry_sample_ns must be >= 1 ms (a faster sampler would "
             "contend with the data path it observes)";
    if (telemetry_enabled && telemetry_ring_samples < 2)
      return "telemetry_ring_samples must be >= 2";
    if (telemetry_serve && !telemetry_enabled)
      return "telemetry_serve requires telemetry_enabled (the endpoints serve "
             "the sampler's rings)";
    if (profiler_enabled && (profiler_hz < 1 || profiler_hz > 1000))
      return "profiler_hz must be in [1, 1000] (above 1 kHz the signal "
             "handler itself becomes the hot function)";
    if (profiler_enabled && (profiler_max_frames < 2 || profiler_max_frames > 64))
      return "profiler_max_frames must be in [2, 64]";
    if (profiler_enabled && profiler_ring_samples < 64)
      return "profiler_ring_samples must be >= 64 (a smaller ring wraps "
             "within one aggregation interval)";
    return {};
  }
};

}  // namespace darray
