// Caller-driven progress (comm_layer.hpp): the consumer of a node's receive
// CQ is a role, taken with try_lock by the progress thread and by an
// application thread waiting on a Completion (CommLayer::wait). These tests
// check the role's hazards: a waiter that holds it re-arms its own ring while
// it posts into a peer's full one, a waiter that loses it parks and still
// completes, and a long wait ends up parked instead of yield-polling.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/darray.hpp"
#include "net/comm_layer.hpp"
#include "runtime/cluster.hpp"
#include "tests/test_util.hpp"

namespace darray::net {
namespace {

using Clock = std::chrono::steady_clock;

// Wait (bounded) until `pred` holds; false on timeout.
template <typename Pred>
bool eventually(Pred&& pred, std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = Clock::now() + limit;
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Runs the calling thread, and the threads it starts while this lives, on
// one CPU, the first the process may use. There a waiter that runs finds the
// role free unless its holder was preempted mid-iteration, as in perfbench's
// pinned runs; across several CPUs a busy progress thread holds it nearly
// all the time and waiters lose it and park.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~OneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Two nodes flood each other with message chains whose every hop is posted by
// a dispatch, as in ProgressThread.MutualFloodNeverStallsOnReceiveRing, but
// each node's application thread waits through the flood in CommLayer::wait
// on a Completion per 64 messages received, on one CPU. So the dispatching
// thread is often the waiter holding the receive role: it posts replies into
// a full four-buffer peer ring while its own ring fills, and must keep its
// own ring armed from the fabric's wait hook, or both nodes stall until RNR.
TEST(CallerProgress, RoleHolderKeepsItsRingArmedWhilePosting) {
  const OneCpu pin;
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.qp_depth = 4;
  cfg.coalesce_enabled = false;
  constexpr uint64_t kSeeds = 32;   // chains started by each node
  constexpr uint64_t kHops = 320;   // replies per chain
  constexpr uint64_t kPerNode = kSeeds * (kHops + 1);  // messages each node receives
  constexpr uint64_t kEpoch = 64;   // messages per Completion the waiter waits on
  constexpr uint64_t kEpochs = kPerNode / kEpoch;

  rdma::Fabric fabric;
  rdma::Device* dev[2] = {fabric.create_device(0), fabric.create_device(1)};
  std::unique_ptr<CommLayer> c[2];
  std::atomic<uint64_t> received[2] = {0, 0};
  std::unique_ptr<Completion[]> epoch[2] = {std::make_unique<Completion[]>(kEpochs + 1),
                                            std::make_unique<Completion[]>(kEpochs + 1)};
  std::atomic<uint64_t> fifo_breaks{0};
  // Touched only by node n's receive-role holder (one thread at a time).
  uint64_t expect[2][2] = {};
  uint64_t reply_seq[2] = {};
  for (uint32_t n = 0; n < 2; ++n) {
    c[n] = std::make_unique<CommLayer>(n, 2, cfg, dev[n], [&, n](RpcMessage&& m) {
      const int kind = m.hdr.type == MsgType::kReadReq ? 0 : 1;
      if (m.hdr.chunk != expect[n][kind]++) fifo_breaks.fetch_add(1);
      if (m.hdr.addr != 0) {
        TxRequest t;
        t.dst = static_cast<uint16_t>(1 - n);
        t.hdr.type = MsgType::kReadData;
        t.hdr.chunk = reply_seq[n]++;
        t.hdr.addr = m.hdr.addr - 1;
        c[n]->post(std::move(t));
      }
      const uint64_t r = received[n].fetch_add(1, std::memory_order_relaxed) + 1;
      if (r % kEpoch == 0) epoch[n][r / kEpoch].signal();
      if (r == kPerNode) epoch[n][0].signal();
    });
  }
  auto [qa, qb] = fabric.connect(dev[0], c[0]->send_cq(), c[0]->recv_cq(), dev[1],
                                 c[1]->send_cq(), c[1]->recv_cq());
  c[0]->set_qp(1, qa);
  c[1]->set_qp(0, qb);
  c[0]->start();
  c[1]->start();

  auto app = [&](uint32_t n) {
    for (uint64_t i = 0; i < kSeeds; ++i) {
      TxRequest t;
      t.dst = static_cast<uint16_t>(1 - n);
      t.hdr.type = MsgType::kReadReq;
      t.hdr.chunk = i;
      t.hdr.addr = kHops;
      c[n]->post(std::move(t));
    }
    for (uint64_t e = 1; e <= kEpochs; ++e) c[n]->wait(epoch[n][e]);
    c[n]->wait(epoch[n][0]);
  };
  std::thread apps[2] = {std::thread(app, 0), std::thread(app, 1)};

  // A stall of 30 s is a hang: the stuck threads cannot be joined, so the
  // process exits with a failure instead.
  uint64_t last = 0;
  auto last_progress = Clock::now();
  for (;;) {
    const uint64_t now_received = received[0].load() + received[1].load();
    if (now_received == 2 * kPerNode) break;
    if (now_received != last) {
      last = now_received;
      last_progress = Clock::now();
    } else if (Clock::now() - last_progress > std::chrono::seconds(30)) {
      std::fprintf(stderr, "flood made no progress for 30 s at %llu of %llu messages\n",
                   static_cast<unsigned long long>(now_received),
                   static_cast<unsigned long long>(2 * kPerNode));
      std::fflush(stderr);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : apps) t.join();
  c[0]->stop();
  c[1]->stop();

  EXPECT_EQ(fifo_breaks.load(), 0u) << "a sender's messages arrived out of order";
  const rdma::FabricStats s = fabric.stats();
  EXPECT_EQ(s.sends, 2 * kPerNode);
  EXPECT_EQ(s.rnr_events, 0u) << "a receive ring stayed empty for the whole RNR budget";
  for (uint32_t n = 0; n < 2; ++n) {
    EXPECT_EQ(c[n]->dropped_requests(), 0u);
    EXPECT_GT(c[n]->rx_pass_stats().caller_passes, 0u)
        << "node " << n << "'s waiter never held the receive role";
  }
}

// A waiter that finds the role taken parks on its Completion and is woken by
// the holder. Here the holder is node 1's progress thread, blocked inside a
// dispatch until the waiter has started and then signalling it: the role is
// held until the Completion is ready, so the waiter can never win it.
TEST(CallerProgress, LoserParksAndCompletes) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  rdma::Fabric fabric;
  rdma::Device* dev[2] = {fabric.create_device(0), fabric.create_device(1)};
  std::unique_ptr<CommLayer> c[2];
  std::atomic<bool> in_dispatch{false}, waiter_started{false};
  Completion done;
  c[0] = std::make_unique<CommLayer>(0, 2, cfg, dev[0], [](RpcMessage&&) {});
  c[1] = std::make_unique<CommLayer>(1, 2, cfg, dev[1], [&](RpcMessage&&) {
    in_dispatch.store(true);
    (void)eventually([&] { return waiter_started.load(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it try the role
    done.signal();
  });
  auto [qa, qb] = fabric.connect(dev[0], c[0]->send_cq(), c[0]->recv_cq(), dev[1],
                                 c[1]->send_cq(), c[1]->recv_cq());
  c[0]->set_qp(1, qa);
  c[1]->set_qp(0, qb);
  c[0]->start();
  c[1]->start();

  TxRequest t;
  t.dst = 1;
  t.hdr.type = MsgType::kReadReq;
  c[0]->post(std::move(t));
  ASSERT_TRUE(eventually([&] { return in_dispatch.load(); }));
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    waiter_started.store(true);
    c[1]->wait(done);
    returned.store(true);
  });
  ASSERT_TRUE(eventually([&] { return returned.load(); }))
      << "a waiter that lost the receive role was never woken";
  waiter.join();
  c[0]->stop();
  c[1]->stop();
  EXPECT_TRUE(done.ready());
  EXPECT_EQ(c[1]->rx_pass_stats().caller_passes, 0u)
      << "the waiter ran a receive iteration while another thread held the role";
}

// A remote wlock held for 200 ms: the waiter on node 1 polls for at most
// CommLayer::kCallerPollNs, then parks. Over a 100 ms window in the middle of
// the hold no thread runs a caller pass (the holder sleeps), where a waiter
// that yield-polled for the whole hold would run thousands.
TEST(CallerProgress, LongLockWaitParks) {
  rt::Cluster cluster(darray::testing::small_cfg(2));
  auto arr = DArray<uint64_t>::create(cluster, 128);
  const uint64_t idx = arr.local_begin(0);  // homed at node 0
  const auto caller_passes = [&cluster] {
    return cluster.stats().value_or("net.rx.caller_passes");
  };
  std::atomic<bool> held{false}, waiter_started{false};
  uint64_t window_passes = 0;
  std::thread holder([&] {
    bind_thread(cluster, 0);
    arr.wlock(idx);
    held.store(true);
    (void)eventually([&] { return waiter_started.load(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t before = caller_passes();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    window_passes = caller_passes() - before;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    arr.unlock(idx);
  });
  std::thread waiter([&] {
    bind_thread(cluster, 1);
    (void)eventually([&] { return held.load(); });
    waiter_started.store(true);
    arr.wlock(idx);
    arr.unlock(idx);
  });
  holder.join();
  waiter.join();
  EXPECT_LT(window_passes, 10u) << "the lock waiter kept polling instead of parking";
  EXPECT_GT(cluster.runtime_stats().lock_waits, 0u);
}

// Remote misses run receive iterations on the waiting application thread:
// the fill that answers a miss is dispatched by the thread that waits on it.
TEST(CallerProgress, RemoteMissesRunCallerPasses) {
  // Node 1 caches 8 of node 0's 64 chunks, so every round misses on each.
  rt::Cluster cluster(darray::testing::small_cfg(2, /*chunk_elems=*/16, /*cachelines=*/8));
  auto arr = DArray<uint64_t>::create(cluster, 16 * 128);
  uint64_t first = 0;
  std::thread t([&] {
    bind_thread(cluster, 1);
    for (int round = 0; round < 4; ++round)
      for (uint64_t i = arr.local_begin(0); i < arr.local_end(0); i += 16)
        arr.set(i, arr.get(i) + 1);
    first = arr.get(arr.local_begin(0));
  });
  t.join();
  const obs::StatsSnapshot s = cluster.stats();
  EXPECT_GT(s.value_or("net.rx.caller_passes"), 0u);
  EXPECT_GT(s.value_or("net.rx.progress_passes"), 0u);
  EXPECT_EQ(first, 4u);
}

}  // namespace
}  // namespace darray::net
