// Run-to-completion engine: a thread that submits a request runs the engine
// pass itself when the engine lock is free (engine_shard.hpp). These tests
// race application and progress threads for one engine's lock and check what
// the protocol promises regardless of which thread wins: per-chunk FIFO of
// RPCs, read-ahead submitted from inside a pass, and lock mutual exclusion
// with FIFO grants. No assertion depends on which thread ran
// a pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::small_cfg;

chaos::FaultPlan flaky_plan(uint64_t seed) {
  chaos::FaultPlan p;
  p.seed = seed;
  p.p_wc_error = 0.03;
  p.p_rnr = 0.02;
  p.rnr_window_ns = 100'000;
  p.p_delay = 0.05;
  p.delay_min_ns = 5'000;
  p.delay_max_ns = 50'000;
  return p;
}

// Poll `progress` until `done()`; a stall of 30 s is a hang. The stuck
// threads cannot be joined, so the process exits with a failure instead.
template <typename Done>
void watch(const char* what, const std::atomic<uint64_t>& progress, Done&& done) {
  uint64_t last = progress.load();
  auto last_change = std::chrono::steady_clock::now();
  while (!done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now = progress.load();
    if (now != last) {
      last = now;
      last_change = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_change > std::chrono::seconds(30)) {
      std::fprintf(stderr, "%s made no progress for 30 s (at %llu)\n", what,
                   static_cast<unsigned long long>(now));
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
}

// Client-plane messages (kClientReq) from node 1 to node 0 carry a per-key
// sequence number; node 0's sink sees them inside engine passes, on whichever
// thread won the lock. Meanwhile node 0's application threads take misses and
// locks through the same engines, and node 1 writes node-0 chunks so node 0's
// progress thread delivers protocol requests too. Every key's sequence must arrive
// in order and complete, and the array must end with the written values.
TEST(EngineInline, RpcFifoPerChunkWhileThreadsRaceForTheLock) {
  for (const uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const chaos::FaultPlan plan = flaky_plan(seed);
    rt::ClusterConfig cfg = small_cfg(2, 64, 16);
    cfg.runtime_threads_per_node = 2;
    cfg.fault_plan = &plan;
    rt::Cluster cluster(cfg);
    auto a = DArray<uint64_t>::create(cluster, 64 * 64);

    constexpr uint32_t kKeys = 8;
    constexpr uint64_t kPerKey = 300;
    std::mutex mu;
    std::vector<uint64_t> last(kKeys, 0);
    uint64_t out_of_order = 0;
    std::atomic<uint64_t> received{0};
    cluster.node(0).set_client_msg_handler([&](net::RpcMessage&& m) {
      {
        std::lock_guard lk(mu);
        uint64_t& l = last[m.hdr.chunk];
        if (m.hdr.addr != l + 1) ++out_of_order;
        l = m.hdr.addr;
      }
      received.fetch_add(1);
    });

    std::atomic<uint64_t> progress{0};
    std::atomic<uint32_t> running{0};
    std::vector<std::thread> ts;
    auto spawn = [&](rt::NodeId node, auto fn) {
      running.fetch_add(1);
      ts.emplace_back([&, node, fn] {
        bind_thread(cluster, node);
        fn();
        running.fetch_sub(1);
      });
    };
    // Two senders on node 1, each owning half the keys (FIFO is per sender).
    for (uint32_t s = 0; s < 2; ++s) {
      spawn(1, [&, s] {
        for (uint64_t seq = 1; seq <= kPerKey; ++seq) {
          for (uint32_t k = s; k < kKeys; k += 2) {
            net::TxRequest t;
            t.dst = 0;
            t.hdr.type = net::MsgType::kClientReq;
            t.hdr.src_node = 1;
            t.hdr.chunk = k;
            t.hdr.addr = seq;
            cluster.node(1).comm().post(std::move(t));
          }
          progress.fetch_add(1);
        }
      });
    }
    const uint64_t local0 = a.local_begin(0), end0 = a.local_end(0);
    const uint64_t local1 = a.local_begin(1), end1 = a.local_end(1);
    // Node 0: remote reads of node-1 chunks plus local lock round trips.
    for (uint32_t t = 0; t < 2; ++t) {
      spawn(0, [&, t] {
        for (uint64_t i = 0; i < 400; ++i) {
          (void)a.get(local1 + (i * 131 + t * 64) % (end1 - local1));
          a.wlock(local0 + (i % 4));
          a.unlock(local0 + (i % 4));
          progress.fetch_add(1);
        }
      });
    }
    // Node 1: writes into node-0 chunks; element i gets i * 3 + 1.
    spawn(1, [&] {
      for (uint64_t i = local0; i < end0; i += 7) {
        a.set(i, i * 3 + 1);
        progress.fetch_add(1);
      }
    });
    watch("RpcFifoPerChunk", progress, [&] {
      return running.load() == 0 && received.load() == kKeys * kPerKey;
    });
    for (auto& t : ts) t.join();
    cluster.node(0).set_client_msg_handler(nullptr);

    EXPECT_EQ(out_of_order, 0u);
    for (uint32_t k = 0; k < kKeys; ++k) EXPECT_EQ(last[k], kPerKey) << "key " << k;
    std::thread check([&] {
      bind_thread(cluster, 0);
      for (uint64_t i = local0; i < end0; i += 7) ASSERT_EQ(a.get(i), i * 3 + 1) << i;
    });
    check.join();
    EXPECT_EQ(cluster.comm_error_count(), 0u);
    // The plan must have bitten: faults injected and recovered from.
    const rdma::FabricStats f = cluster.fabric().stats();
    EXPECT_GT(f.total_faults(), 0u);
    EXPECT_GT(f.retries, 0u);
  }
}

// A sequential read stream makes the engine read ahead: issue_prefetches
// submits kPrefetch requests from inside a pass — often one the reading
// thread runs itself. Such a submission must only enqueue (the thread already
// holds the engine lock), so every prefetch counts as a hand-off, nothing
// deadlocks, and the stream reads the right data.
TEST(EngineInline, ReadAheadFromInlinePassDoesNotSelfDeadlock) {
  rt::ClusterConfig cfg = small_cfg(2, 64, 256);
  cfg.prefetch_chunks = 4;
  rt::Cluster cluster(cfg);
  auto a = DArray<uint64_t>::create(cluster, 64 * 256);
  const uint64_t b = a.local_begin(0), e = a.local_end(0);
  std::thread fill([&] {
    bind_thread(cluster, 0);
    for (uint64_t i = b; i < e; ++i) a.set(i, i ^ 0x5a5a);
  });
  fill.join();

  std::atomic<uint64_t> progress{0};
  std::atomic<bool> done{false};
  uint64_t bad = 0;
  std::thread reader([&] {
    bind_thread(cluster, 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t i = b; i < e; ++i) {
        if (a.get(i) != (i ^ 0x5a5a)) ++bad;
        progress.fetch_add(1);
      }
    }
    done.store(true);
  });
  watch("ReadAhead", progress, [&] { return done.load(); });
  reader.join();

  EXPECT_EQ(bad, 0u);
  const rt::RuntimeStats s = cluster.runtime_stats();
  EXPECT_GT(s.prefetches_issued, 0u);
  EXPECT_GE(s.handoffs, s.prefetches_issued) << "a prefetch submitted mid-pass ran a pass";
}

// Three threads on the home node and one on a remote node contend for one
// element's write lock. Mutual exclusion: at most one holder at a time, and
// unprotected read-modify-writes lose nothing. FIFO: with the lock held,
// waiters queued one at a time (each confirmed queued at home through
// runtime.lock_waits) are granted in exactly that order.
TEST(EngineInline, ContendedWlockMutualExclusionAndFifoGrants) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 128);
  const uint64_t idx = a.local_begin(0) + 3;
  constexpr uint32_t kThreads = 4;  // ids 0..2 on node 0, id 3 on node 1
  auto node_of = [](uint32_t id) -> rt::NodeId { return id < 3 ? 0 : 1; };

  // Part 1: mutual exclusion under contention.
  constexpr uint64_t kIters = 150;
  std::atomic<uint64_t> progress{0};
  std::atomic<int> holders{0};
  std::atomic<uint64_t> overlaps{0};
  uint64_t plain = 0;  // guarded only by the distributed lock
  std::vector<std::thread> ts;
  for (uint32_t id = 0; id < kThreads; ++id) {
    ts.emplace_back([&, id] {
      bind_thread(cluster, node_of(id));
      for (uint64_t k = 0; k < kIters; ++k) {
        a.wlock(idx);
        if (holders.fetch_add(1) != 0) overlaps.fetch_add(1);
        ++plain;
        a.set(idx, a.get(idx) + 1);
        holders.fetch_sub(1);
        a.unlock(idx);
        progress.fetch_add(1);
      }
    });
  }
  watch("WlockMutualExclusion", progress,
        [&] { return progress.load() == kThreads * kIters; });
  for (auto& t : ts) t.join();
  ts.clear();
  EXPECT_EQ(overlaps.load(), 0u);
  EXPECT_EQ(plain, kThreads * kIters);
  std::thread check([&] {
    bind_thread(cluster, 1);
    EXPECT_EQ(a.get(idx), kThreads * kIters);
  });
  check.join();

  // Part 2: FIFO grant order, three rounds with the remote waiter in each
  // position but the first.
  const std::vector<std::vector<uint32_t>> orders = {{0, 3, 1, 2}, {1, 2, 3, 0}, {2, 0, 1, 3}};
  for (const auto& order : orders) {
    std::mutex log_mu;
    std::vector<uint32_t> grants;
    std::atomic<uint32_t> go{kThreads};  // id allowed to call wlock
    std::atomic<bool> holder_in{false}, release{false};
    std::atomic<uint64_t> finished{0};
    std::thread holder([&] {
      bind_thread(cluster, 0);
      a.wlock(idx);
      holder_in.store(true);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
      a.unlock(idx);
    });
    while (!holder_in.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    for (uint32_t id = 0; id < kThreads; ++id) {
      ts.emplace_back([&, id] {
        bind_thread(cluster, node_of(id));
        while (go.load() != id) std::this_thread::sleep_for(std::chrono::microseconds(50));
        a.wlock(idx);
        {
          std::lock_guard lk(log_mu);
          grants.push_back(id);
        }
        a.unlock(idx);
        finished.fetch_add(1);
      });
    }
    std::atomic<uint64_t> queued{0};
    for (uint32_t pos = 0; pos < kThreads; ++pos) {
      const uint64_t before = cluster.runtime_stats().lock_waits;
      go.store(order[pos]);
      watch("WlockQueueing", queued,
            [&] { return cluster.runtime_stats().lock_waits == before + 1; });
      queued.fetch_add(1);
    }
    release.store(true);
    holder.join();
    watch("WlockFifoGrants", finished, [&] { return finished.load() == kThreads; });
    for (auto& t : ts) t.join();
    ts.clear();
    EXPECT_EQ(grants, order);
  }
}

}  // namespace
}  // namespace darray
