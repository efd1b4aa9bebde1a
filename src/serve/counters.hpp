// serve.* counters: one shared block per front door, registered as a
// StatsRegistry source so the numbers flow through snapshots, /metrics
// (darray_serve_*_total), the telemetry sampler, and darray-top.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/stats_registry.hpp"

namespace darray::serve {

struct ServeCounters {
  std::atomic<uint64_t> accepted{0};         // admitted: queued, or run inline
  std::atomic<uint64_t> shed{0};             // refused at admission (kBusy sent)
  std::atomic<uint64_t> completed{0};        // responses produced (worker or inline)
  std::atomic<uint64_t> busy_replies{0};     // kBusy responses observed by sessions
  std::atomic<uint64_t> hot_promotions{0};   // keys promoted into the hot cache
  std::atomic<uint64_t> hot_hits{0};         // gets answered from the hot cache
  std::atomic<uint64_t> hot_invalidations{0};// hot entries dropped by writes
  std::atomic<uint64_t> late_responses{0};   // responses after timeout/close
  std::atomic<uint64_t> client_retries{0};   // sync-API resubmits after kBusy
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> reqs_wire{0};        // requests that crossed the fabric
  std::atomic<uint64_t> reqs_local{0};       // owner-local, fabric bypassed
  std::atomic<uint64_t> reqs_inline{0};      // owner-local, run on the caller
  std::atomic<int64_t> inflight{0};          // queued + executing, cluster-wide
};

// The source captures the shared_ptr by value: the sampler thread may snapshot
// after the service that registered it has shut down, so the counter block
// must outlive the service, not the other way around.
inline void register_serve_counters(obs::StatsRegistry& reg,
                                    std::shared_ptr<const ServeCounters> c) {
  reg.add_source([c](obs::StatsSnapshot& s) {
    auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    s.add("serve.accepted", ld(c->accepted));
    s.add("serve.shed", ld(c->shed));
    s.add("serve.completed", ld(c->completed));
    s.add("serve.busy_replies", ld(c->busy_replies));
    s.add("serve.hot_promotions", ld(c->hot_promotions));
    s.add("serve.hot_hits", ld(c->hot_hits));
    s.add("serve.hot_invalidations", ld(c->hot_invalidations));
    s.add("serve.late_responses", ld(c->late_responses));
    s.add("serve.client_retries", ld(c->client_retries));
    s.add("serve.sessions_opened", ld(c->sessions_opened));
    s.add("serve.reqs_wire", ld(c->reqs_wire));
    s.add("serve.reqs_local", ld(c->reqs_local));
    s.add("serve.reqs_inline", ld(c->reqs_inline));
    // ".gauge" marks a point sample: the sampler must not difference it, and
    // /metrics renders it as a gauge. Clamp transient negatives (inflight is
    // incremented and decremented on different threads) to zero.
    const int64_t inf = c->inflight.load(std::memory_order_relaxed);
    s.add("serve.inflight.gauge", inf > 0 ? static_cast<uint64_t>(inf) : 0);
  });
}

}  // namespace darray::serve
