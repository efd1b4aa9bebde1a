// Tunables for the client-serving front door.
#pragma once

#include <cstdint>

#include "common/assert.hpp"

namespace darray::serve {

struct ServeConfig {
  // Admission control: per-node bound on queued-plus-running requests. When
  // the dispatcher is at capacity, new arrivals are shed with an immediate
  // kBusy instead of growing the queue (bounded p99 under overload beats
  // serving every request eventually). 0 disables shedding — the queue grows
  // without bound, the baseline the serve_soak bench compares against.
  uint32_t accept_queue_cap = 256;

  // Dedicated KVS-executing worker threads per node. Engine passes only
  // route; the blocking KVS ops run here. 0 is legal (nothing executes —
  // used by timeout tests).
  uint32_t workers_per_node = 1;

  // Owner-side hot-key cache (read lease): keys whose observed read rate
  // crosses hot_promote_threshold get their value pinned at the owner's
  // dispatcher, answering from memory without touching the KVS arrays.
  // Writes through the serve path invalidate before responding.
  bool hot_key_enabled = true;
  uint32_t hot_promote_threshold = 64;  // reads-since-decay before promotion
  uint32_t hot_max_entries = 16;        // zipfian head is tiny; keep the cache tiny
  uint32_t hot_max_value_bytes = 4096;  // never pin bulk values

  // Artificial per-request service time on the backend path (tests/bench:
  // makes capacity deterministic so overload is reproducible). Hot-cache hits
  // skip it — they model the fast path.
  uint64_t worker_delay_ns = 0;

  // Request-journey tracing (obs v4): per-request stage stamps feeding the
  // hist.stage.* histograms, with tail-based retention of full span chains
  // (slow / shed / timed-out / errored) for /slow.json and darray-trace
  // --journeys. The stamp cost is ~6 clock reads per request.
  bool journey_enabled = true;
  uint32_t journey_retain_cap = 256;   // retention-ring size (journeys kept)
  uint64_t journey_slow_floor_ns = 0;  // also retain total >= floor; 0 = p99 only

  // Client-side retry of kBusy replies in Client's synchronous API: bounded
  // exponential backoff with jitter. Off by default — retries amplify load,
  // so opting in is an application decision (docs/serving.md).
  bool client_retry_enabled = false;
  uint32_t client_retry_max = 4;             // retries after the first attempt
  uint64_t client_retry_base_ns = 100'000;   // first backoff (doubles per retry)
  uint64_t client_retry_cap_ns = 10'000'000; // backoff ceiling

  void validate() const {
    DARRAY_ASSERT_MSG(hot_promote_threshold > 0, "hot_promote_threshold must be >= 1");
    DARRAY_ASSERT_MSG(hot_max_entries > 0, "hot_max_entries must be >= 1");
    DARRAY_ASSERT_MSG(journey_retain_cap > 0, "journey_retain_cap must be >= 1");
    DARRAY_ASSERT_MSG(!client_retry_enabled || client_retry_base_ns > 0,
                      "client_retry_base_ns must be >= 1 when retries are on");
    DARRAY_ASSERT_MSG(client_retry_cap_ns >= client_retry_base_ns,
                      "client_retry_cap_ns must be >= client_retry_base_ns");
  }
};

}  // namespace darray::serve
