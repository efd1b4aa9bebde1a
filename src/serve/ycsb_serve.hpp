// The YCSB driver: runs the kvs/ycsb.hpp workload (Zipfian keys, get/put
// mix) through darray::Client sessions, so traffic takes the serve path
// (pipelined window, admission control, hot-key cache) rather than calling
// the storage engine directly.
#pragma once

#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "core/context.hpp"
#include "kvs/ycsb.hpp"
#include "runtime/cluster.hpp"
#include "serve/client.hpp"

namespace darray::serve {

struct ServeYcsbResult {
  double kops = 0;  // completed ops (shed kBusy replies excluded)
  uint64_t gets = 0, puts = 0, misses = 0, busy = 0;
  double elapsed_s = 0;
};

// Client threads are bound to their session's node, like any application
// thread: a request whose key that node owns runs on the client's own thread
// (RequestDispatcher::offer_local), the path perfbench's kvs_zipf measures.

// Load phase through the front door, so even preload traffic is session
// traffic. Keys are spread round-robin across client nodes, like YCSB's load
// phase.
inline void ycsb_load_serve(KvsService& svc, const kvs::YcsbConfig& cfg) {
  const uint32_t nodes = svc.cluster().num_nodes();
  std::vector<std::thread> ts;
  for (uint32_t n = 0; n < nodes; ++n) {
    ts.emplace_back([&, n] {
      bind_thread(svc.cluster(), n);
      Client cli = Client::connect(svc, {.node = n, .window = 16});
      std::deque<OpHandle> q;
      for (uint64_t k = n; k < cfg.n_keys; k += nodes) {
        q.push_back(
            cli.async_put(kvs::ycsb_key(k), kvs::ycsb_value(k, cfg.value_bytes)));
        if (q.size() >= 16) {
          const Status st = q.front().get().status;
          DARRAY_ASSERT_MSG(st == Status::kOk, "serve load phase put failed");
          q.pop_front();
        }
      }
      while (!q.empty()) {
        const Status st = q.front().get().status;
        DARRAY_ASSERT_MSG(st == Status::kOk, "serve load phase put failed");
        q.pop_front();
      }
    });
  }
  for (auto& t : ts) t.join();
}

// Closed-loop pipelined run: each thread owns one Client and keeps `window`
// ops in flight.
inline ServeYcsbResult run_ycsb_serve(KvsService& svc, const kvs::YcsbConfig& cfg,
                                      uint32_t window = 16) {
  rt::Cluster& cluster = svc.cluster();
  const uint32_t total_threads = cluster.num_nodes() * cfg.threads_per_node;
  SenseBarrier barrier(total_threads + 1);
  std::atomic<uint64_t> gets{0}, puts{0}, misses{0}, busy{0};

  std::vector<std::thread> ts;
  for (rt::NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (uint32_t t = 0; t < cfg.threads_per_node; ++t) {
      ts.emplace_back([&, n, t] {
        bind_thread(cluster, n);
        Client cli = Client::connect(svc, {.node = n, .window = window});
        Xoshiro256 rng(cfg.seed * 1000003 + n * 131 + t);
        ZipfGenerator zipf(cfg.n_keys, cfg.zipf_theta);
        uint64_t my_gets = 0, my_puts = 0, my_misses = 0, my_busy = 0;
        std::deque<std::pair<bool, OpHandle>> q;  // (is_get, handle)
        auto harvest = [&] {
          auto [is_get, h] = std::move(q.front());
          q.pop_front();
          const Response r = h.get();
          if (r.status == Status::kBusy) {
            ++my_busy;
          } else if (is_get) {
            ++my_gets;
            if (r.status != Status::kOk) ++my_misses;
          } else {
            ++my_puts;
          }
        };
        barrier.arrive_and_wait();  // start together
        for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
          const uint64_t k = zipf.next(rng);
          if (rng.next_double() < cfg.get_ratio)
            q.emplace_back(true, cli.async_get(kvs::ycsb_key(k)));
          else
            q.emplace_back(false, cli.async_put(kvs::ycsb_key(k),
                                                kvs::ycsb_value(k ^ i, cfg.value_bytes)));
          if (q.size() >= window) harvest();
        }
        while (!q.empty()) harvest();
        gets.fetch_add(my_gets);
        puts.fetch_add(my_puts);
        misses.fetch_add(my_misses);
        busy.fetch_add(my_busy);
        barrier.arrive_and_wait();  // end together
      });
    }
  }

  barrier.arrive_and_wait();
  const uint64_t t0 = now_ns();
  barrier.arrive_and_wait();
  const uint64_t t1 = now_ns();
  for (auto& t : ts) t.join();

  ServeYcsbResult r;
  r.gets = gets.load();
  r.puts = puts.load();
  r.misses = misses.load();
  r.busy = busy.load();
  r.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
  r.kops = static_cast<double>(r.gets + r.puts) / r.elapsed_s / 1e3;
  return r;
}

}  // namespace darray::serve
