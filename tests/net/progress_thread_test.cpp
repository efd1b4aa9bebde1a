// One progress thread per node (comm_layer.hpp): it polls both CQs, reposts
// the receive ring, dispatches, runs the Tx pass and the engine passes
// submitters leave. These tests check that a node has exactly that one
// service thread, and the rule that keeps it safe: it never waits on a peer's
// receive ring without re-arming its own.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "net/comm_layer.hpp"
#include "obs/thread_registry.hpp"
#include "runtime/cluster.hpp"
#include "tests/test_util.hpp"

namespace darray::net {
namespace {

// Two nodes flood each other with message chains whose every hop is posted
// by a dispatch, i.e. from the receiving node's progress thread. With four
// receive buffers per QP the rings fill constantly, so both progress threads
// often post into a full peer ring at once; each must keep re-arming its own
// while it waits, or both stall until RNR.
TEST(ProgressThread, MutualFloodNeverStallsOnReceiveRing) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.qp_depth = 4;
  cfg.coalesce_enabled = false;
  constexpr uint64_t kSeeds = 32;    // chains started by each node
  constexpr uint64_t kHops = 320;    // replies per chain
  constexpr uint64_t kTotal = 2 * kSeeds * (kHops + 1);
  static_assert(kSeeds * (kHops + 1) >= 10'000, "each node must send >= 10k messages");

  rdma::Fabric fabric;
  rdma::Device* dev[2] = {fabric.create_device(0), fabric.create_device(1)};
  std::unique_ptr<CommLayer> c[2];
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> fifo_breaks{0};
  // Touched only by node n's progress thread: the next sequence number
  // expected from the peer per message kind (seed, reply), and the sequence
  // number of the next reply node n sends.
  uint64_t expect[2][2] = {};
  uint64_t reply_seq[2] = {};
  for (uint32_t n = 0; n < 2; ++n) {
    c[n] = std::make_unique<CommLayer>(n, 2, cfg, dev[n], [&, n](RpcMessage&& m) {
      const int kind = m.hdr.type == MsgType::kReadReq ? 0 : 1;
      if (m.hdr.chunk != expect[n][kind]++) fifo_breaks.fetch_add(1);
      received.fetch_add(1, std::memory_order_relaxed);
      if (m.hdr.addr == 0) return;  // end of the chain
      TxRequest t;
      t.dst = static_cast<uint16_t>(1 - n);
      t.hdr.type = MsgType::kReadData;
      t.hdr.chunk = reply_seq[n]++;
      t.hdr.addr = m.hdr.addr - 1;
      c[n]->post(std::move(t));
    });
  }
  auto [qa, qb] = fabric.connect(dev[0], c[0]->send_cq(), c[0]->recv_cq(), dev[1],
                                 c[1]->send_cq(), c[1]->recv_cq());
  c[0]->set_qp(1, qa);
  c[1]->set_qp(0, qb);
  c[0]->start();
  c[1]->start();

  auto seed = [&](uint32_t n) {
    for (uint64_t i = 0; i < kSeeds; ++i) {
      TxRequest t;
      t.dst = static_cast<uint16_t>(1 - n);
      t.hdr.type = MsgType::kReadReq;
      t.hdr.chunk = i;
      t.hdr.addr = kHops;
      c[n]->post(std::move(t));
    }
  };
  std::thread other([&] { seed(1); });
  seed(0);
  other.join();

  // A stall of 30 s is a hang: the stuck threads cannot be joined, so the
  // process exits with a failure instead.
  uint64_t last = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (received.load(std::memory_order_relaxed) < kTotal) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t now_received = received.load(std::memory_order_relaxed);
    if (now_received != last) {
      last = now_received;
      last_progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_progress > std::chrono::seconds(30)) {
      std::fprintf(stderr, "mutual flood made no progress for 30 s at %llu of %llu messages\n",
                   static_cast<unsigned long long>(now_received),
                   static_cast<unsigned long long>(kTotal));
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  c[0]->stop();
  c[1]->stop();

  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(fifo_breaks.load(), 0u) << "a sender's messages arrived out of order";
  const rdma::FabricStats s = fabric.stats();
  EXPECT_EQ(s.sends, kTotal);
  EXPECT_EQ(s.rnr_events, 0u) << "a receive ring stayed empty for the whole RNR budget";
  EXPECT_EQ(c[0]->dropped_requests(), 0u);
  EXPECT_EQ(c[1]->dropped_requests(), 0u);
}

// Each node has one service thread: its progress thread, which also runs the
// engine passes submitters leave. No Tx, Rx or runtime thread runs.
TEST(ProgressThread, OneCommThreadPerNode) {
  rt::Cluster cluster(darray::testing::small_cfg(2));
  // Threads name themselves once running: wait (bounded) for both nodes'.
  int net_threads[2] = {0, 0};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    net_threads[0] = net_threads[1] = 0;
    for (const obs::ThreadEntry* e : obs::all_thread_entries()) {
      if (!e->alive.load(std::memory_order_acquire)) continue;
      if (std::strcmp(e->name, "net.0") == 0) ++net_threads[0];
      if (std::strcmp(e->name, "net.1") == 0) ++net_threads[1];
    }
    if (net_threads[0] != 0 && net_threads[1] != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(net_threads[0], 1);
  EXPECT_EQ(net_threads[1], 1);
  for (const obs::ThreadEntry* e : obs::all_thread_entries()) {
    if (!e->alive.load(std::memory_order_acquire)) continue;
    EXPECT_NE(std::strncmp(e->name, "tx.", 3), 0) << "a Tx thread is running: " << e->name;
    EXPECT_NE(std::strncmp(e->name, "rx.", 3), 0) << "an Rx thread is running: " << e->name;
    EXPECT_NE(std::strncmp(e->name, "rt.", 3), 0) << "a runtime thread is running: " << e->name;
  }
}

}  // namespace
}  // namespace darray::net
