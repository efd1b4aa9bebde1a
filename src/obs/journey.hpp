// Request-journey tracing (obs v4): per-request stage breakdown for the
// serving plane, with tail-based retention.
//
// A RequestJourney is stamped as one client request crosses the serve path:
//
//   t_submit   client called submit (origin node, before any encode/route)
//   t_admit    the owner's dispatcher admitted the job
//   t_dequeue  a worker popped the job off the accept queue
//   t_backend  the backend op (KVS get/put/erase or hot-cache hit) finished
//   t_resp_rx  the origin received the response (deliver_local entry)
//   t_deliver  the session matched the response and woke the waiter
//
// Consecutive differences define five stages that partition the end-to-end
// interval exactly — admit (request leg: encode + wire + admission), queue,
// backend, net (response leg), deliver (session matching + wakeup) — so the
// per-stage histograms answer "which stage ate the p99" without any residual
// bucket. All simulated nodes share one monotonic clock (common/clock.hpp
// now_ns), which is what makes cross-"node" stamp arithmetic meaningful.
//
// The JourneyCollector is a process-global leaked singleton, like the
// latency-histogram registries: the serve path records into it lock-free (five
// AtomicLatencyHistogram cells + one end-to-end cell), and a bounded retention
// ring keeps the full span chain only for requests that are slow (end-to-end
// above max(config floor, live p99)), shed, timed out, or errored. /slow.json
// and the Prometheus exemplar hook read the ring; benches reset it between
// phases via reset().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/spinlock.hpp"
#include "obs/latency_histogram.hpp"

namespace darray::obs {

enum class JourneyStage : uint8_t {
  kAdmit = 0,   // t_admit   - t_submit
  kQueue,       // t_dequeue - t_admit
  kBackend,     // t_backend - t_dequeue
  kNet,         // t_resp_rx - t_backend
  kDeliver,     // t_deliver - t_resp_rx
  kMaxStage,
};
inline constexpr size_t kNumJourneyStages = static_cast<size_t>(JourneyStage::kMaxStage);

const char* journey_stage_name(JourneyStage s);

struct RequestJourney {
  // Flag bits (OR-able; flags != 0 marks an exceptional journey).
  static constexpr uint8_t kFlagShed = 1;     // refused by admission (kBusy)
  static constexpr uint8_t kFlagTimeout = 2;  // waiter gave up before a response
  static constexpr uint8_t kFlagError = 4;    // non-ok, non-busy terminal status
  static constexpr uint8_t kFlagHotHit = 8;   // served from the owner hot cache

  uint64_t trace = 0;      // correlation id; rides the wire in MsgHeader.trace
  uint64_t t_submit = 0;
  uint64_t t_admit = 0;
  uint64_t t_dequeue = 0;
  uint64_t t_backend = 0;
  uint64_t t_resp_rx = 0;
  uint64_t t_deliver = 0;
  uint16_t origin = 0;     // node whose session issued the request
  uint16_t owner = 0;      // node whose dispatcher executed it
  uint32_t session = 0;
  uint64_t seq = 0;
  uint8_t op = 0;          // serve::ClientOp value
  uint8_t status = 0;      // Status value of the final response
  uint8_t flags = 0;

  // Duration of one stage; 0 when either stamp is missing or out of order
  // (exceptional journeys have incomplete stamp chains by construction).
  uint64_t stage_ns(JourneyStage s) const {
    auto d = [](uint64_t a, uint64_t b) { return (a && b && b > a) ? b - a : 0; };
    switch (s) {
      case JourneyStage::kAdmit: return d(t_submit, t_admit);
      case JourneyStage::kQueue: return d(t_admit, t_dequeue);
      case JourneyStage::kBackend: return d(t_dequeue, t_backend);
      case JourneyStage::kNet: return d(t_backend, t_resp_rx);
      case JourneyStage::kDeliver: return d(t_resp_rx, t_deliver);
      case JourneyStage::kMaxStage: break;
    }
    return 0;
  }

  uint64_t total_ns() const {
    return (t_deliver > t_submit) ? t_deliver - t_submit : 0;
  }

  // The stage holding the largest share of the journey (kMaxStage when every
  // stage is zero) — "what dominated this request".
  JourneyStage dominant_stage() const {
    JourneyStage best = JourneyStage::kMaxStage;
    uint64_t best_ns = 0;
    for (size_t i = 0; i < kNumJourneyStages; ++i) {
      const uint64_t d = stage_ns(static_cast<JourneyStage>(i));
      if (d > best_ns) {
        best_ns = d;
        best = static_cast<JourneyStage>(i);
      }
    }
    return best;
  }
};

// Nonzero journey correlation id: new_corr_id() when tracing is compiled in
// (so journeys link up with the trace rings / Perfetto flows), a process-wide
// counter otherwise — journeys stay addressable in a DARRAY_TRACING=0 build.
uint64_t journey_trace_id();

class JourneyCollector {
 public:
  struct Exemplar {
    uint64_t trace = 0;
    uint64_t value_ns = 0;
  };

  // Re-arm for a serving phase. Configuring does not clear prior data (call
  // reset() for that); it only sets the retention policy.
  //   retain_cap     ring capacity (clamped to >= 1)
  //   slow_floor_ns  retain any completed journey with total >= floor (0 =
  //                  p99-threshold only)
  void configure(bool enabled, uint32_t retain_cap, uint64_t slow_floor_ns);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Completed request with a full stamp chain: feeds the five stage histograms
  // and the end-to-end cell, then retains the journey iff it is tail-slow.
  void complete(const RequestJourney& j);

  // Shed / timed-out / errored request: retained unconditionally, histograms
  // untouched (a shed has no queue/backend stages to pollute the cells with).
  void retain_exceptional(const RequestJourney& j);

  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t retained() const { return retained_.load(std::memory_order_relaxed); }
  // Live tail threshold (ns): max(slow floor, p99 of the end-to-end cell,
  // recomputed every kThresholdEvery completions). 0 until the first recompute.
  uint64_t threshold_ns() const { return threshold_ns_.load(std::memory_order_relaxed); }

  HistogramSnapshot stage_snapshot(JourneyStage s) const;
  HistogramSnapshot e2e_snapshot() const { return e2e_.snapshot(); }

  // Most recent retained journey whose `stage` duration fell in histogram
  // bucket `bucket` — the Prometheus exemplar for that bucket. False when the
  // bucket never retained.
  bool exemplar_for(JourneyStage stage, int bucket, Exemplar& out) const;

  // Same lookup keyed by a bucket's rendered upper bound (what /metrics has in
  // hand): resolves the upper back to a bucket index, tolerating the scheme's
  // inclusive-vs-exclusive edge between the linear and log-linear rows.
  bool exemplar_for_upper(JourneyStage stage, uint64_t upper_ns, Exemplar& out) const;

  // Oldest → newest copy of the retention ring.
  std::vector<RequestJourney> snapshot_retained() const;

  // The /slow.json payload. One journey object per line (so line-oriented
  // consumers — darray-trace --journeys — can parse without a JSON library).
  std::string slow_json() const;

  // Write slow_json() to a file for offline rendering. False on I/O failure.
  bool dump_json(const char* path) const;

  // Zero the ring, counters, threshold, exemplars, and the stage/e2e
  // histograms. Quiescent use only (between bench phases).
  void reset();

  // Histogram-only reset (stage + e2e cells, completion count, threshold);
  // keeps the retention ring so a cross-phase hist reset doesn't drop
  // evidence. Backs the global reset_latency_histograms() contract.
  void reset_histograms();

 private:
  void retain_locked(const RequestJourney& j);

  static constexpr uint32_t kThresholdEvery = 64;  // completions per p99 refresh

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> retain_cap_{256};
  std::atomic<uint64_t> slow_floor_ns_{0};
  std::atomic<uint64_t> threshold_ns_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> retained_{0};

  AtomicLatencyHistogram stages_[kNumJourneyStages];
  AtomicLatencyHistogram e2e_;

  mutable SpinLock mu_;  // guards ring_, ring_pos_, exemplars_
  std::vector<RequestJourney> ring_;
  size_t ring_pos_ = 0;
  // Latest retained exemplar per {stage × histogram bucket}; trace == 0 means
  // "never filled". ~45 KB once touched — small next to the histogram cells.
  std::vector<Exemplar> exemplars_;  // kNumJourneyStages * kHistBuckets
};

// Leaked process-global instance (same lifetime discipline as the
// latency-histogram registries: dumps after thread exit read valid storage).
JourneyCollector& journey_collector();

// Zeroes only the collector's stage/e2e histogram cells; called from
// reset_latency_histograms() so "reset every histogram" keeps meaning that.
void reset_stage_histograms();

}  // namespace darray::obs
