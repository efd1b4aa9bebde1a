#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "obs/journey.hpp"

namespace darray::serve {

Client Client::connect(KvsService& service, Options opts) {
  DARRAY_ASSERT_MSG(static_cast<bool>(service), "connect() on an empty KvsService");
  DARRAY_ASSERT_MSG(opts.window > 0, "client window must be >= 1");
  Client c;
  c.lease_ = std::make_shared<SessionLease>();
  c.lease_->svc = service.impl_ptr();
  c.lease_->core =
      c.lease_->svc->open_session(opts.node, opts.window, opts.timeout_ns);
  // Decorrelate concurrent clients' backoff without nondeterminism across
  // runs: the session id is unique and assigned deterministically.
  c.jitter_rng_.seed(0x9e3779b9u ^ (c.lease_->core->id * 2654435761u));
  return c;
}

OpHandle Client::submit(Request req) {
  auto& svc = *lease_->svc;
  auto& core = *lease_->core;
  const bool journey = svc.config().journey_enabled;
  const uint64_t trace = journey ? obs::journey_trace_id() : 0;
  uint64_t seq;
  uint64_t t0 = 0;
  {
    std::unique_lock lk(core.mu);
    core.cv.wait(lk, [&] { return core.inflight < core.window; });
    seq = core.next_seq++;
    // t_submit is stamped after the window admits us: the journey measures
    // service-side latency, not the client's own pipelining backpressure.
    if (journey) t0 = now_ns();
    PendingOp op;
    op.trace = trace;
    op.t_submit = t0;
    op.op = static_cast<uint8_t>(req.op);
    core.pending.emplace(seq, std::move(op));
    ++core.inflight;
  }
  const Status st = svc.submit(core, seq, req, trace, t0);
  if (st != Status::kOk) {
    // Guard failure or synchronous local shed: complete the slot in place so
    // the handle resolves with the typed error (kBusy counts like a wire
    // busy-reply would).
    Response r;
    r.status = st;
    if (trace && st == Status::kBusy) {
      r.j.owner = static_cast<uint16_t>(core.node);
      r.j.flags = obs::RequestJourney::kFlagShed;
    }
    core.deliver(seq, std::move(r), svc.counters());
  }
  return OpHandle(lease_->core, seq);
}

Response Client::sync_op(const Request& req) {
  const ServeConfig& cfg = lease_->svc->config();
  Response r = submit(Request(req)).get();
  if (!cfg.client_retry_enabled) return r;
  uint64_t backoff = cfg.client_retry_base_ns;
  for (uint32_t attempt = 0; attempt < cfg.client_retry_max && r.status == Status::kBusy;
       ++attempt) {
    // Half-fixed half-jittered backoff: retries from concurrent clients spread
    // over [backoff/2, backoff] instead of re-colliding in lockstep.
    const uint64_t half = backoff / 2;
    const uint64_t delay = half + (half ? jitter_rng_() % (half + 1) : backoff);
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    backoff = std::min(backoff * 2, cfg.client_retry_cap_ns);
    lease_->svc->counters().client_retries.fetch_add(1, std::memory_order_relaxed);
    r = submit(Request(req)).get();
  }
  return r;
}

Status Client::put(std::string_view key, std::string_view value) {
  return sync_op({ClientOp::kPut, std::string(key), std::string(value)}).status;
}

Status Client::get(std::string_view key, std::string& out) {
  Response r = sync_op({ClientOp::kGet, std::string(key), {}});
  if (r.status == Status::kOk) out = std::move(r.value);
  return r.status;
}

Status Client::erase(std::string_view key) {
  return sync_op({ClientOp::kDelete, std::string(key), {}}).status;
}

}  // namespace darray::serve
