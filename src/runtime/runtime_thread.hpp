// One runtime thread (paper Fig. 2): owns a private cache region and the
// protocol state of every chunk with (chunk % runtime_threads) == index, fed
// by its local-request and RPC-message queues.
//
// Who runs the engine pass (docs/perf.md): one pass at a time, under the
// engine lock. A submitter enqueues, then runs the pass itself when it can
// take the lock without waiting, so an idle engine costs no thread hop;
// otherwise it rings this thread, which runs the same pass under the same
// lock and parks without it. Threads that must not run a pass only enqueue
// and ring: one already inside an engine pass (the engine's own read-ahead
// submits mid-pass), and anyone before start() or once stop() has begun.
// Every pass runs inside a CommLayer::DeferTx scope: the engine's sends are
// queued and posted after the engine lock is released, so it is never held
// across a fabric post.
#pragma once

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/config.hpp"
#include "common/mpsc_queue.hpp"
#include "net/comm_layer.hpp"
#include "net/message.hpp"
#include "obs/duty_cycle.hpp"
#include "runtime/cache_region.hpp"
#include "runtime/engine.hpp"

namespace darray::rt {

class NodeRuntime;

class RuntimeThread {
 public:
  RuntimeThread(NodeRuntime* node, uint32_t node_id, uint32_t index,
                const ClusterConfig& cfg, rdma::Device* device)
      : region_(device, cfg),
        engine_(node, index, &region_, &bell_),
        node_id_(node_id),
        index_(index) {}

  RuntimeThread(const RuntimeThread&) = delete;
  RuntimeThread& operator=(const RuntimeThread&) = delete;

  void start() {
    thread_ = std::thread([this] { main_loop(); });
    inline_ok_.store(true, std::memory_order_release);
  }

  void stop() {
    if (!thread_.joinable()) return;
    inline_ok_.store(false, std::memory_order_release);
    stop_.store(true, std::memory_order_release);
    bell_.ring();
    thread_.join();
  }

  // Application threads (Fig. 2 local-req queue).
  void submit_local(LocalRequest* r) {
    local_q_.push(r);
    run_or_ring();
  }

  // The comm layer's progress thread (Fig. 2 RPC-msg queue).
  void submit_rpc(net::RpcMessage m) {
    rpc_q_.push(std::move(m));
    run_or_ring();
  }

  Doorbell& bell() { return bell_; }

  RuntimeStats stats() const {
    RuntimeStats s = engine_.stats();
    s.inline_passes = inline_passes_;
    s.handoffs = handoffs_;
    return s;
  }
  const obs::DutyCycle& duty() const { return duty_; }
  const CacheRegion& region() const { return region_; }

 private:
  static inline thread_local bool t_in_pass = false;

  // The submitter's half of the design above. A pass it runs covers what was
  // queued when it began; it rings this thread for anything left.
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
    // The lock holder may be past its queue drain; the ring makes this
    // thread run one more pass.
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

  // noinline keeps this frame out of the start() lambda so profiler samples
  // name the runtime loop (docs/observability.md v5).
  DARRAY_PROFILE_ANCHOR void main_loop() {
    char tname[16];
    std::snprintf(tname, sizeof tname, "rt.%u.%u", node_id_, index_);
    obs::register_current_thread(tname);
    duty_.on_start();
    for (;;) {
      const uint32_t snap = bell_.snapshot();
      bool work = false, poll = false;
      {
        net::CommLayer::DeferTx defer;
        std::unique_lock<std::mutex> lk(engine_mu_, std::try_to_lock);
        if (!lk.owns_lock()) {
          // A submitter is running the pass: waiting for it is idle time.
          const uint64_t t0 = duty_.park_begin();
          lk.lock();
          duty_.park_end(t0);
        }
        work = pass();
        poll = engine_.needs_poll();
      }
      if (stop_.load(std::memory_order_acquire)) break;
      if (!work) {
        const uint64_t t0 = duty_.park_begin();
        if (poll)
          std::this_thread::yield();  // waiting on refcounts that don't ring
        else
          bell_.wait_change(snap);
        duty_.park_end(t0);
      }
    }
    duty_.on_stop();
  }

  Doorbell bell_;
  // Pushes don't ring: a submitter rings only when it leaves its request to
  // this thread.
  MpscQueue<LocalRequest*> local_q_;
  MpscQueue<net::RpcMessage> rpc_q_;
  CacheRegion region_;
  // The engine lock: held for every pass, by this thread or a submitter; it
  // guards both queues' consumer side and all engine state.
  std::mutex engine_mu_;
  Engine engine_;
  obs::DutyCycle duty_;
  RelaxedCounter inline_passes_, handoffs_;
  std::thread thread_;
  std::atomic<bool> inline_ok_{false};  // between start() and stop()
  std::atomic<bool> stop_{false};
  uint32_t node_id_ = 0;
  uint32_t index_ = 0;
};

}  // namespace darray::rt
