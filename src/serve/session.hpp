// Client-session state: the pipelined in-flight window and the seq→response
// matching that pairs a submitted request with its eventual kClientResp.
//
// One SessionCore per connected Client. Submission and completion run on
// different threads (the application thread vs an engine pass delivering a
// response), so the core is a mutex+condvar rendezvous; the fast path is one
// short critical section per side.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "obs/journey.hpp"
#include "runtime/types.hpp"
#include "serve/counters.hpp"
#include "serve/protocol.hpp"

namespace darray::serve {

struct PendingOp {
  bool done = false;
  Response resp;
  // Journey identity, stamped at submit. trace == 0 means "not journeyed"
  // (journeys disabled) — deliver/await skip the collector entirely then.
  uint64_t trace = 0;
  uint64_t t_submit = 0;
  uint8_t op = 0;  // ClientOp value, for the retained record
};

class SessionCore {
 public:
  SessionCore(rt::NodeId node, uint32_t id, uint32_t window, uint64_t timeout_ns)
      : node(node), id(id), window(window), timeout_ns(timeout_ns) {}

  const rt::NodeId node;      // where the session's traffic originates
  const uint32_t id;          // rides the wire as hdr.txn_id
  const uint32_t window;      // max in-flight before submit blocks
  const uint64_t timeout_ns;  // 0 = wait forever

  std::mutex mu;
  std::condition_variable cv;
  uint64_t next_seq = 0;   // guarded by mu
  uint32_t inflight = 0;   // guarded by mu: submitted, response not yet in
  std::unordered_map<uint64_t, PendingOp> pending;  // guarded by mu

  // Completion side: called with a decoded response for `seq`. Returns false
  // if nobody is waiting (the waiter timed out, or the session closed) — the
  // caller counts it as late rather than lost. Frees the window slot: the
  // window bounds ops outstanding in the service, not unharvested handles, so
  // a client may hold arbitrarily many completed OpHandles without stalling
  // its own submissions.
  bool deliver(uint64_t seq, Response&& r, ServeCounters& c) {
    std::lock_guard lk(mu);
    auto it = pending.find(seq);
    if (it == pending.end() || it->second.done) return false;
    if (r.status == Status::kBusy)
      c.busy_replies.fetch_add(1, std::memory_order_relaxed);
    finish_journey(it->second, r, seq);
    it->second.resp = std::move(r);
    it->second.done = true;
    --inflight;
    cv.notify_all();  // wake the waiter and any submit blocked on the window
    return true;
  }

  // Waiter side: blocks until `seq` completes or the session timeout lapses.
  // On timeout the pending entry is erased (a late response is dropped at
  // deliver() instead of leaking map entries) and the window slot the
  // response never freed is reclaimed here.
  Response await(uint64_t seq) {
    std::unique_lock lk(mu);
    auto it = pending.find(seq);
    if (it == pending.end()) return Response{};  // already consumed: kTimeout
    // References into an unordered_map survive rehash; iterators may not, so
    // the predicate captures the mapped value, not `it`.
    PendingOp& op = it->second;
    bool completed;
    if (timeout_ns == 0) {
      cv.wait(lk, [&] { return op.done; });
      completed = true;
    } else {
      completed =
          cv.wait_for(lk, std::chrono::nanoseconds(timeout_ns), [&] { return op.done; });
    }
    Response r = completed ? std::move(op.resp) : Response{};  // default = kTimeout
    if (!completed && op.trace) {
      // The waiter gave up: retain the partial chain (whatever stamps a late
      // response would have carried are lost — the timeout IS the evidence).
      obs::RequestJourney j;
      j.trace = op.trace;
      j.t_submit = op.t_submit;
      j.origin = static_cast<uint16_t>(node);
      j.session = id;
      j.seq = seq;
      j.op = op.op;
      j.status = static_cast<uint8_t>(Status::kTimeout);
      j.flags = obs::RequestJourney::kFlagTimeout;
      obs::journey_collector().retain_exceptional(j);
    }
    pending.erase(seq);
    if (!completed) --inflight;  // abandoned op: deliver() never freed the slot
    cv.notify_all();
    return r;
  }

 private:
  // Completion-side journey accounting (mu held): a clean response completes
  // the five-stage chain; a shed/errored one is retained unconditionally.
  void finish_journey(const PendingOp& p, const Response& r, uint64_t seq) {
    if (!p.trace) return;
    obs::RequestJourney j;
    j.trace = p.trace;
    j.t_submit = p.t_submit;
    j.t_admit = r.j.t_admit;
    j.t_dequeue = r.j.t_dequeue;
    j.t_backend = r.j.t_backend;
    j.t_resp_rx = r.j.t_resp_rx;
    j.t_deliver = now_ns();
    j.origin = static_cast<uint16_t>(node);
    j.owner = r.j.owner;
    j.session = id;
    j.seq = seq;
    j.op = p.op;
    j.status = static_cast<uint8_t>(r.status);
    j.flags = r.j.flags;
    if (r.status == Status::kOk || r.status == Status::kNotFound) {
      obs::journey_collector().complete(j);
    } else {
      j.flags |= (r.status == Status::kBusy) ? obs::RequestJourney::kFlagShed
                                             : obs::RequestJourney::kFlagError;
      obs::journey_collector().retain_exceptional(j);
    }
  }
};

// Per-node table of live sessions, consulted by the service when a
// kClientResp arrives. Sessions are shared_ptr so a response can complete
// against a core that the owning Client is concurrently destroying.
class SessionRegistry {
 public:
  std::shared_ptr<SessionCore> open(rt::NodeId node, uint32_t window,
                                    uint64_t timeout_ns) {
    std::lock_guard lk(mu_);
    const uint32_t id = next_id_++;
    auto core = std::make_shared<SessionCore>(node, id, window, timeout_ns);
    sessions_.emplace(id, core);
    return core;
  }

  void close(uint32_t id) {
    std::lock_guard lk(mu_);
    sessions_.erase(id);
  }

  std::shared_ptr<SessionCore> find(uint32_t id) {
    std::lock_guard lk(mu_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
  }

 private:
  SpinLock mu_;
  uint32_t next_id_ = 1;  // 0 reserved: "no session"
  std::unordered_map<uint32_t, std::shared_ptr<SessionCore>> sessions_;
};

}  // namespace darray::serve
