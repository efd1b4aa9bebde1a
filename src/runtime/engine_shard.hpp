// One engine shard (paper Fig. 2's runtime thread, without its thread): the
// coherence engine, private cache region and protocol state of the chunks
// that map to it (chunk % runtime_threads_per_node), fed by its
// local-request and RPC-message queues.
//
// Who runs the engine pass (docs/perf.md): one pass at a time, under the
// engine lock. A submitter enqueues, then runs the pass itself when it can
// take the lock without waiting, so an idle engine costs no thread hop.
// Whatever it leaves to others (a lost try_lock, work queued behind its
// snapshot, an allocation retry) it hands to the node's progress thread by
// ringing the shard's bell; the next receive iteration, the progress
// thread's or a waiting application thread's, runs the same pass under the
// same lock (run_leftover). Threads that must not run a pass only enqueue and
// ring: one already inside an engine pass (the engine's own read-ahead
// submits mid-pass), and anyone before start() or once stop() has begun.
// Every pass runs inside a CommLayer::DeferTx scope: the engine's sends are
// queued and posted after the engine lock is released, so it is never held
// across a fabric post.
#pragma once

#include <atomic>
#include <mutex>

#include "common/config.hpp"
#include "common/mpsc_queue.hpp"
#include "net/comm_layer.hpp"
#include "net/message.hpp"
#include "runtime/cache_region.hpp"
#include "runtime/engine.hpp"

namespace darray::rt {

class NodeRuntime;

class EngineShard {
 public:
  // `progress_bell` is the node's progress-thread doorbell.
  EngineShard(NodeRuntime* node, const ClusterConfig& cfg, rdma::Device* device,
              Doorbell* progress_bell)
      : bell_(progress_bell), region_(device, cfg), engine_(node, &region_) {}

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  void start() { inline_ok_.store(true, std::memory_order_release); }
  void stop() { inline_ok_.store(false, std::memory_order_release); }

  // Application threads (Fig. 2 local-req queue).
  void submit_local(LocalRequest* r) {
    local_q_.push(r);
    run_or_ring();
  }

  // The comm layer's dispatch, on its receive-role holder (Fig. 2 RPC-msg
  // queue).
  void submit_rpc(net::RpcMessage m) {
    rpc_q_.push(std::move(m));
    run_or_ring();
  }

  // Asks the progress thread for one more pass of this shard.
  PendingBell& bell() { return bell_; }

  // The receive-role holder's half, once per receive iteration (the progress
  // thread's, or a waiter's): when the shard was rung, wait for the engine
  // lock and run a pass. It waits rather than try_locks: a drain whose last
  // reference dropped after the holder's tick() is not in the holder's
  // leftover check. While an allocation retry waits on refcounts, which drop
  // without ringing, the shard stays marked and the progress loop yields
  // instead of parking (`poll`).
  net::CommLayer::Progress run_leftover() {
    if (!bell_.take()) return {};
    net::CommLayer::Progress p;
    {
      net::CommLayer::DeferTx defer;  // outlives the lock: posts after unlock
      std::lock_guard<std::mutex> lk(engine_mu_);
      p.progressed = pass();
      p.poll = engine_.needs_poll();
    }
    if (p.poll) bell_.keep();
    return p;
  }

  RuntimeStats stats() const {
    RuntimeStats s = engine_.stats();
    s.inline_passes = inline_passes_;
    s.handoffs = handoffs_;
    return s;
  }
  const CacheRegion& region() const { return region_; }

 private:
  static inline thread_local bool t_in_pass = false;

  // The submitter's half of the design above. A pass it runs covers what was
  // queued when it began; it rings the progress thread for anything left.
  void run_or_ring() {
    if (!t_in_pass && inline_ok_.load(std::memory_order_acquire)) {
      net::CommLayer::DeferTx defer;  // outlives the lock: posts after unlock
      std::unique_lock<std::mutex> lk(engine_mu_, std::try_to_lock);
      if (lk.owns_lock()) {
        ++inline_passes_;
        pass();
        const bool left = !local_q_.empty() || !rpc_q_.empty() || engine_.needs_poll();
        lk.unlock();
        if (left) bell_.ring();
        return;
      }
    }
    // The lock holder may be past its queue drain; the ring makes the
    // progress thread run one more pass.
    ++handoffs_;
    bell_.ring();
  }

  // One engine pass over a snapshot of both queues, then tick(). Caller holds
  // engine_mu_. Returns whether anything progressed.
  bool pass() {
    t_in_pass = true;
    bool work = false;
    const auto local_end = local_q_.mark();
    const auto rpc_end = rpc_q_.mark();
    LocalRequest* lr = nullptr;
    while (local_q_.pop_through(local_end, lr)) {
      engine_.handle_local(lr);
      work = true;
    }
    net::RpcMessage m;
    while (rpc_q_.pop_through(rpc_end, m)) {
      engine_.handle_rpc(std::move(m));
      work = true;
    }
    work |= engine_.tick();
    t_in_pass = false;
    return work;
  }

  PendingBell bell_;
  // Pushes don't ring: a submitter rings only when it leaves its request to
  // the progress thread.
  MpscQueue<LocalRequest*> local_q_;
  MpscQueue<net::RpcMessage> rpc_q_;
  CacheRegion region_;
  // The engine lock: held for every pass, by a submitter or the progress
  // thread; it guards both queues' consumer side and all engine state.
  std::mutex engine_mu_;
  Engine engine_;
  RelaxedCounter inline_passes_, handoffs_;
  std::atomic<bool> inline_ok_{false};  // between start() and stop()
};

}  // namespace darray::rt
