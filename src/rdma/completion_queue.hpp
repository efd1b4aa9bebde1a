// Completion queue for the simulated fabric. Producers are posting threads;
// there is one consumer at a time: a node's recv CQ is polled only by the
// holder of its comm layer's receive role, its send CQ only under the comm
// layer's Tx lock.
// Entries carrying a future deliver_at_ns deadline are held back on the
// consumer side, which is how the fabric injects link latency without
// blocking the poster.
//
// Ordering contract: a CQ may be shared by several QPs, and chaos-injected
// delay spikes can give a WR from one QP a much later deadline than a WR
// posted after it on another QP. The holdback is therefore kept sorted by
// deliver_at_ns (a delayed entry must not head-of-line-block other QPs'
// completions). Per-QP FIFO — the ordering the coherence protocol relies on —
// is preserved because QueuePair clamps each QP's completion timestamps to be
// monotone non-decreasing and the sort is stable for equal deadlines.
#pragma once

#include <algorithm>
#include <deque>
#include <span>

#include "common/clock.hpp"
#include "common/mpsc_queue.hpp"
#include "rdma/verbs.hpp"

namespace darray::rdma {

class CompletionQueue {
 public:
  // The CQ rings `bell` on every push; pass the consumer thread's doorbell so
  // one thread can park on several queues at once (a comm layer's send and
  // recv CQs share its progress thread's bell). Defaults to a private bell.
  explicit CompletionQueue(Doorbell* bell = nullptr)
      : bell_(bell ? bell : &own_bell_) {}

  // Fabric-internal: enqueue a completion (any thread).
  void push(WorkCompletion wc) {
    queue_.push(wc);
    bell_->ring();
  }

  // Consumer only. Returns the number of due completions written to `out`.
  size_t poll(std::span<WorkCompletion> out) {
    const uint64_t now = now_ns();
    size_t n = 0;
    WorkCompletion wc;
    // Fast path: nothing held back, emit due entries straight off the queue.
    while (holdback_.empty() && n < out.size()) {
      if (!queue_.pop(wc)) return n;
      if (wc.deliver_at_ns > now) {
        holdback_insert(wc);
        break;
      }
      out[n++] = wc;
    }
    if (holdback_.empty()) return n;
    // Slow path: merge the whole queue into the sorted holdback so an undue
    // entry from one QP cannot block due entries from another, then emit from
    // the front.
    while (queue_.pop(wc)) holdback_insert(wc);
    while (n < out.size() && !holdback_.empty() &&
           holdback_.front().deliver_at_ns <= now) {
      out[n++] = holdback_.front();
      holdback_.pop_front();
    }
    return n;
  }

  // Nanoseconds until the next held-back completion is due; 0 when something
  // may already be ready, ~0 when nothing is pending at all.
  uint64_t next_due_in() const {
    if (!holdback_.empty()) {
      const uint64_t now = now_ns();
      const uint64_t at = holdback_.front().deliver_at_ns;
      return at > now ? at - now : 0;
    }
    return queue_.empty() ? ~0ull : 0;
  }

  // Wakes the consumer whenever a completion is pushed; consumers park here.
  Doorbell& doorbell() { return *bell_; }

 private:
  // Stable insert by deadline: equal deadlines keep arrival (push) order,
  // which together with per-QP monotone timestamps preserves per-QP FIFO.
  void holdback_insert(const WorkCompletion& wc) {
    auto it = std::upper_bound(holdback_.begin(), holdback_.end(), wc,
                               [](const WorkCompletion& a, const WorkCompletion& b) {
                                 return a.deliver_at_ns < b.deliver_at_ns;
                               });
    holdback_.insert(it, wc);
  }

  Doorbell own_bell_;
  Doorbell* bell_;
  MpscQueue<WorkCompletion> queue_;
  std::deque<WorkCompletion> holdback_;  // consumer-private, sorted by deadline
};

}  // namespace darray::rdma
