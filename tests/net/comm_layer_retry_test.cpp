// Comm-layer recovery under injected faults: transparent in-order retry,
// staged data WRITEs, RNR re-posting, and surfacing of exhausted requests
// through the error handler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chaos/fault_injector.hpp"
#include "common/wait.hpp"
#include "net/comm_layer.hpp"

namespace darray::net {
namespace {

// Two nodes' comm layers over one fabric with a fault injector attached
// before any traffic.
struct ChaosHarness {
  ClusterConfig cfg;
  chaos::FaultPlan plan;
  std::unique_ptr<chaos::FaultInjector> injector;
  rdma::Fabric fabric;
  rdma::Device* d0;
  rdma::Device* d1;
  std::unique_ptr<CommLayer> c0, c1;

  std::mutex mu;
  std::vector<RpcMessage> inbox0, inbox1;
  std::atomic<int> received{0};

  explicit ChaosHarness(chaos::FaultPlan p, ClusterConfig base = {}) : cfg(base), plan(p) {
    cfg.num_nodes = 2;
    cfg.qp_depth = 64;
    cfg.fault_plan = &plan;
    if (plan.enabled()) {
      injector = std::make_unique<chaos::FaultInjector>(plan);
      fabric.set_fault_injector(injector.get());
    }
    d0 = fabric.create_device(0);
    d1 = fabric.create_device(1);
    c0 = std::make_unique<CommLayer>(0, 2, cfg, d0, [this](RpcMessage&& m) {
      std::scoped_lock lk(mu);
      inbox0.push_back(std::move(m));
      received.fetch_add(1, std::memory_order_release);
      received.notify_all();
    });
    c1 = std::make_unique<CommLayer>(1, 2, cfg, d1, [this](RpcMessage&& m) {
      std::scoped_lock lk(mu);
      inbox1.push_back(std::move(m));
      received.fetch_add(1, std::memory_order_release);
      received.notify_all();
    });
  }

  void start() {
    auto [qa, qb] = fabric.connect(d0, c0->send_cq(), c0->recv_cq(), d1, c1->send_cq(),
                                   c1->recv_cq());
    c0->set_qp(1, qa);
    c1->set_qp(0, qb);
    c0->start();
    c1->start();
  }

  ~ChaosHarness() {
    c0->stop();
    c1->stop();
  }

  void wait_for(int n) {
    spin_wait_until(received, [n](int v) { return v >= n; });
  }
};

chaos::FaultPlan flaky_plan(uint64_t seed) {
  chaos::FaultPlan p;
  p.seed = seed;
  p.p_wc_error = 0.05;
  p.p_rnr = 0.03;
  p.rnr_window_ns = 100'000;
  p.p_delay = 0.05;
  p.delay_min_ns = 5'000;
  p.delay_max_ns = 50'000;
  return p;
}

TEST(CommLayerRetry, FaultyLinkStillDeliversEverythingInOrder) {
  ChaosHarness h(flaky_plan(13));
  h.start();
  constexpr int kEach = 400;
  for (int i = 0; i < kEach; ++i) {
    TxRequest a;
    a.dst = 1;
    a.hdr.type = MsgType::kInvAck;
    a.hdr.chunk = static_cast<uint64_t>(i);
    h.c0->post(std::move(a));
    TxRequest b;
    b.dst = 0;
    b.hdr.type = MsgType::kInvAck;
    b.hdr.chunk = static_cast<uint64_t>(i);
    h.c1->post(std::move(b));
  }
  h.wait_for(2 * kEach);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox0.size(), static_cast<size_t>(kEach));
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kEach));
  // Transparent recovery must preserve per-QP FIFO: chunks in posting order,
  // no duplicates, no losses.
  for (int i = 0; i < kEach; ++i) {
    EXPECT_EQ(h.inbox0[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
    EXPECT_EQ(h.inbox1[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
  }
  // The plan makes at least one fault on 800 messages a near-certainty; every
  // one of them must have been retried (nothing was dropped).
  const rdma::FabricStats s = h.fabric.stats();
  EXPECT_GT(s.wc_errors, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
  EXPECT_EQ(h.c1->dropped_requests(), 0u);
}

// Two threads post to one peer over a faulty link: posts run the Tx pass
// inline while the link is healthy and leave the rest to the progress thread
// while the peer recovers. Each poster's messages must arrive once, in its own order.
TEST(CommLayerRetry, InlineAndQueuedPostsKeepPerPeerFifo) {
  ChaosHarness h(flaky_plan(21));
  h.start();
  constexpr uint64_t kEach = 600;
  const auto post = [&h](uint64_t poster, uint64_t seq) {
    TxRequest t;
    t.dst = 1;
    t.hdr.type = MsgType::kInvAck;
    t.hdr.chunk = poster << 32 | seq;
    h.c0->post(std::move(t));
  };
  std::thread other([&] {
    for (uint64_t i = 0; i < kEach; ++i) post(1, i);
  });
  for (uint64_t i = 0; i < kEach; ++i) post(0, i);
  other.join();
  h.wait_for(static_cast<int>(2 * kEach));
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(2 * kEach));
  uint64_t next[2] = {0, 0};
  for (const RpcMessage& m : h.inbox1) {
    const uint64_t poster = m.hdr.chunk >> 32;
    ASSERT_LT(poster, 2u);
    ASSERT_EQ(m.hdr.chunk & 0xffffffffu, next[poster]) << "poster " << poster;
    ++next[poster];
  }
  EXPECT_GT(h.fabric.stats().retries, 0u);
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
}

// An inline post that the send arena cannot cover returns at once instead of
// parking for buffers: every staged WRITE holds its buffer until a completion
// delayed by 200 ms. The progress thread stages and delivers what the posts
// left.
TEST(CommLayerRetry, InlinePostOnExhaustedArenaHandsOffToProgressThread) {
  chaos::FaultPlan slow;
  slow.p_delay = 1.0;
  slow.delay_min_ns = 100'000'000;
  slow.delay_max_ns = 100'000'000;
  ClusterConfig cfg;
  cfg.rendezvous_enabled = false;       // bulk data stays eager (staged)
  cfg.selective_signal_interval = 1;    // smallest send arena
  ChaosHarness h(slow, cfg);
  h.start();
  const uint32_t buf = static_cast<uint32_t>(h.c0->max_msg_bytes());
  // Request 0 needs more buffers than the whole arena; requests 1.. need 16
  // each, so the arena covers a few of them and then every buffer waits.
  constexpr int kReqs = 21;
  const auto len_of = [buf](int r) { return r == 0 ? 256 * buf : 16 * buf; };
  std::vector<size_t> off(kReqs + 1, 0);
  for (int r = 0; r < kReqs; ++r) off[r + 1] = off[r] + len_of(r);
  std::vector<std::byte> src(off[kReqs]), dst(off[kReqs]);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 7 + i / buf);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());
  std::vector<std::atomic<uint32_t>> posted(kReqs);
  uint64_t slowest_post_ns = 0;
  for (int r = 0; r < kReqs; ++r) {
    TxRequest t;
    t.dst = 1;
    t.hdr.type = MsgType::kReadData;
    t.hdr.chunk = static_cast<uint64_t>(r);
    t.data_src = src.data() + off[r];
    t.data_len = len_of(r);
    t.data_lkey = ms.lkey;
    t.data_remote_addr = reinterpret_cast<uint64_t>(dst.data() + off[r]);
    t.data_rkey = md.rkey;
    t.posted_flag = &posted[static_cast<size_t>(r)];
    const uint64_t t0 = now_ns();
    h.c0->post(std::move(t));
    slowest_post_ns = std::max(slowest_post_ns, now_ns() - t0);
    if (r == 0) {
      // Whether request 0's post ran the pass or found it taken, an inline
      // pass that saw it must have left it to the progress thread.
      const CommLayer::TxPassStats s = h.c0->tx_pass_stats();
      EXPECT_EQ(s.handoffs, s.inline_passes);
    }
  }
  EXPECT_LT(slowest_post_ns, 100'000'000u) << "a post waited for arena buffers";
  h.wait_for(kReqs);
  for (auto& p : posted) EXPECT_EQ(p.load(), 1u);
  std::scoped_lock lk(h.mu);
  for (int r = 0; r < kReqs; ++r)
    EXPECT_EQ(h.inbox1[static_cast<size_t>(r)].hdr.chunk, static_cast<uint64_t>(r));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), dst.size()), 0);
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
}

TEST(CommLayerRetry, StagedWriteSurvivesSourceRecycling) {
  // Under chaos the data WRITE must be replayable after the runtime recycles
  // the source cacheline, so the Tx pass stages the payload.
  ChaosHarness h(flaky_plan(99));
  h.start();
  std::vector<std::byte> src(256), dst(256);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());

  constexpr int kRounds = 60;
  for (int r = 0; r < kRounds; ++r) {
    std::memset(src.data(), 0x40 + (r & 0x3F), src.size());
    std::atomic<uint32_t> posted{0};
    TxRequest t;
    t.dst = 1;
    t.hdr.type = MsgType::kReadData;
    t.hdr.chunk = static_cast<uint64_t>(r);
    t.data_src = src.data();
    t.data_len = 256;
    t.data_lkey = ms.lkey;
    t.data_remote_addr = reinterpret_cast<uint64_t>(dst.data());
    t.data_rkey = md.rkey;
    t.posted_flag = &posted;
    h.c0->post(std::move(t));
    // The moment the flag is set the source is "recycled": clobber it.
    spin_wait_until(posted, [](uint32_t v) { return v != 0; });
    std::memset(src.data(), 0xFF, src.size());
    // The notification arrives only after the WRITE landed (FIFO), and the
    // data must be the staged original, not the clobbered source.
    h.wait_for(r + 1);
    for (size_t i = 0; i < dst.size(); ++i)
      ASSERT_EQ(dst[i], static_cast<std::byte>(0x40 + (r & 0x3F)))
          << "round " << r << " byte " << i;
  }
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
}

TEST(CommLayerRetry, ExhaustedRetriesSurfaceThroughErrorHandler) {
  // A permanently blackholed peer: every WR toward node 1 is dropped, so the
  // request must burn its attempt budget and land in the error handler.
  chaos::FaultPlan p;
  p.seed = 5;
  chaos::FaultWindow w;
  w.node = 1;
  w.start_ns = 0;
  w.duration_ns = ~0ull / 2;  // effectively forever
  w.blackhole = true;
  p.windows.push_back(w);

  ClusterConfig base;
  base.comm_max_attempts = 4;
  base.comm_backoff_base_ns = 5'000;
  base.comm_backoff_cap_ns = 40'000;
  ChaosHarness h(p, base);

  std::atomic<int> failures{0};
  CommError last{};
  h.c0->set_error_handler([&](const CommError& err) {
    last = err;
    failures.fetch_add(1, std::memory_order_release);
    failures.notify_all();
  });
  h.start();

  TxRequest t;
  t.dst = 1;
  t.hdr.type = MsgType::kInvAck;
  t.hdr.chunk = 7;
  h.c0->post(std::move(t));

  spin_wait_until(failures, [](int v) { return v >= 1; });
  EXPECT_EQ(last.peer, 1u);
  EXPECT_EQ(last.attempts, 4u);
  EXPECT_EQ(last.status, rdma::WcStatus::kRetryExceeded);
  EXPECT_STREQ(last.reason, "retry attempts exhausted");
  EXPECT_GE(h.c0->dropped_requests(), 1u);
  EXPECT_GE(h.fabric.stats().retries, 3u);
}

TEST(CommLayerRetry, CleanLinkKeepsFaultCountersAtZero) {
  // No injector ⇒ the whole fault path stays cold: counters all zero.
  ChaosHarness h(chaos::FaultPlan{});  // disabled plan — no injector attached
  h.start();
  constexpr int kEach = 200;
  for (int i = 0; i < kEach; ++i) {
    TxRequest a;
    a.dst = 1;
    a.hdr.type = MsgType::kInvAck;
    a.hdr.chunk = static_cast<uint64_t>(i);
    h.c0->post(std::move(a));
  }
  h.wait_for(kEach);
  const rdma::FabricStats s = h.fabric.stats();
  // Coalescing may pack several messages per wire SEND, so bound rather than
  // pin the SEND count; every message must still arrive exactly once.
  EXPECT_GE(s.sends, 1u);
  EXPECT_LE(s.sends, static_cast<uint64_t>(kEach));
  EXPECT_EQ(s.wc_errors, 0u);
  EXPECT_EQ(s.rnr_events, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.flushed_wrs, 0u);
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
}

}  // namespace
}  // namespace darray::net
