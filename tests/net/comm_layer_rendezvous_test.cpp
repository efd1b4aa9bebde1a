// Large-message engine: eager/rendezvous protocol selection, zero-copy READ
// pulls, MTU chunking, lease lifecycle, NAK/fallback semantics, and chaos
// behaviour (docs/perf.md, "Large-message engine").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

// Two nodes' comm layers over one fabric, with configurable fabric latency,
// rendezvous knobs, and an optional fault plan attached before traffic.
struct RndzHarness {
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

  explicit RndzHarness(ClusterConfig base = {}, chaos::FaultPlan p = {},
                       rdma::FabricConfig fc = {})
      : cfg(base), plan(p), fabric(fc) {
    cfg.num_nodes = 2;
    cfg.qp_depth = 64;
    if (plan.enabled()) {
      cfg.fault_plan = &plan;
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

  ~RndzHarness() {
    c0->stop();
    c1->stop();
  }

  void wait_for(int n) {
    spin_wait_until(received, [n](int v) { return v >= n; });
  }

  // Sender-side rendezvous completion is asynchronous to the receiver's
  // notification (the FIN rides back separately), so poll for it.
  void wait_rndz_completed(uint64_t n) {
    while (c0->rndz_stats().completed < n) std::this_thread::yield();
  }
};

// Index-dependent pattern so any chunk-offset mixup corrupts comparisons.
void fill_pattern(std::byte* p, size_t n, uint32_t salt) {
  for (size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::byte>((i * 31 + salt * 7 + 3) & 0xFF);
}

::testing::AssertionResult matches_pattern(const std::byte* p, size_t n, uint32_t salt) {
  for (size_t i = 0; i < n; ++i) {
    const auto want = static_cast<std::byte>((i * 31 + salt * 7 + 3) & 0xFF);
    if (p[i] != want)
      return ::testing::AssertionFailure()
             << "byte " << i << ": got " << std::to_integer<int>(p[i]) << " want "
             << std::to_integer<int>(want) << " (salt " << salt << ")";
  }
  return ::testing::AssertionSuccess();
}

TxRequest bulk_req(uint16_t dst, const std::byte* src, uint32_t len, uint32_t lkey,
                   const std::byte* dst_addr, uint32_t rkey, uint64_t seq) {
  TxRequest t;
  t.dst = dst;
  t.hdr.type = MsgType::kReadData;
  t.hdr.chunk = seq;
  t.data_src = src;
  t.data_len = len;
  t.data_lkey = lkey;
  t.data_remote_addr = reinterpret_cast<uint64_t>(dst_addr);
  t.data_rkey = rkey;
  return t;
}

TEST(Rendezvous, LargeTransferPullsZeroCopy) {
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  RndzHarness h(base);
  h.start();
  constexpr uint32_t kLen = 256 * 1024;
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());
  fill_pattern(src.data(), kLen, 1);

  std::atomic<uint32_t> posted{0};
  TxRequest t = bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), md.rkey, 0);
  t.posted_flag = &posted;
  h.c0->post(std::move(t));

  h.wait_for(1);
  {
    std::scoped_lock lk(h.mu);
    ASSERT_EQ(h.inbox1.size(), 1u);
    EXPECT_EQ(h.inbox1[0].hdr.type, MsgType::kReadData);
    EXPECT_EQ(h.inbox1[0].hdr.src_node, 0u);
  }
  // The notification is dispatched only after the pull's signaled completion,
  // so the destination is fully populated by the time it arrives.
  EXPECT_TRUE(matches_pattern(dst.data(), kLen, 1));

  h.wait_rndz_completed(1);
  const auto rs = h.c0->rndz_stats();
  EXPECT_EQ(rs.started, 1u);
  EXPECT_EQ(rs.completed, 1u);
  EXPECT_EQ(rs.fallbacks, 0u);
  EXPECT_EQ(rs.bytes, kLen);
  // The FIN released the pinned source.
  EXPECT_EQ(posted.load(), 1u);

  const rdma::FabricStats s = h.fabric.stats();
  EXPECT_EQ(s.writes, 0u) << "rendezvous must not move bulk bytes by eager WRITE";
  EXPECT_GE(s.reads, 1u);
  EXPECT_EQ(s.bytes_rndz, kLen);
  EXPECT_EQ(s.rndz_transfers, 1u);
  EXPECT_GE(s.bytes_read, uint64_t{kLen});

  // Per-peer Tx accounting: bulk bytes are rendezvous, not eager WRITE.
  const auto ptx = h.c0->peer_tx_bytes(1);
  EXPECT_EQ(ptx.rndz_bytes, kLen);
  EXPECT_EQ(ptx.write_bytes, 0u);
  EXPECT_GT(ptx.send_bytes, 0u);  // the kRndzReq control frame
}

TEST(Rendezvous, BelowThresholdStaysEager) {
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  RndzHarness h(base);
  h.start();
  constexpr uint32_t kLen = 32 * 1024 - 1;
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());
  fill_pattern(src.data(), kLen, 2);

  h.c0->post(bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), md.rkey, 0));
  h.wait_for(1);
  EXPECT_TRUE(matches_pattern(dst.data(), kLen, 2));
  EXPECT_EQ(h.c0->rndz_stats().started, 0u);
  const rdma::FabricStats s = h.fabric.stats();
  EXPECT_GE(s.writes, 1u);
  EXPECT_EQ(s.reads, 0u);
  EXPECT_EQ(s.bytes_rndz, 0u);
  const auto ptx = h.c0->peer_tx_bytes(1);
  EXPECT_EQ(ptx.write_bytes, kLen);
  EXPECT_EQ(ptx.rndz_bytes, 0u);
}

TEST(Rendezvous, ExactlyAtThresholdGoesRendezvous) {
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  RndzHarness h(base);
  h.start();
  constexpr uint32_t kLen = 32 * 1024;  // boundary: >= threshold → rendezvous
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());
  fill_pattern(src.data(), kLen, 3);

  h.c0->post(bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), md.rkey, 0));
  h.wait_for(1);
  EXPECT_TRUE(matches_pattern(dst.data(), kLen, 3));
  h.wait_rndz_completed(1);
  EXPECT_EQ(h.c0->rndz_stats().started, 1u);
  EXPECT_EQ(h.fabric.stats().bytes_rndz, kLen);
}

TEST(Rendezvous, MtuChunkingHandlesMisalignedLength) {
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  base.rendezvous_mtu_bytes = 16 * 1024;
  RndzHarness h(base);
  h.start();
  constexpr uint32_t kLen = 100'000;  // not a multiple of the MTU
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());
  fill_pattern(src.data(), kLen, 4);

  h.c0->post(bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), md.rkey, 0));
  h.wait_for(1);
  EXPECT_TRUE(matches_pattern(dst.data(), kLen, 4));
  const rdma::FabricStats s = h.fabric.stats();
  EXPECT_EQ(s.reads, (kLen + base.rendezvous_mtu_bytes - 1) / base.rendezvous_mtu_bytes);
  EXPECT_EQ(s.bytes_read, uint64_t{kLen});
  EXPECT_EQ(s.bytes_rndz, uint64_t{kLen});
}

TEST(Rendezvous, LeaseExhaustionFallsBackToEager) {
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  base.rendezvous_max_leases = 1;
  rdma::FabricConfig fc;
  fc.latency_ns = 200'000;  // FIN needs ≥2 round trips: leases stay pinned
  RndzHarness h(base, {}, fc);
  h.start();
  constexpr uint32_t kLen = 64 * 1024;
  constexpr int kXfers = 4;
  std::vector<std::vector<std::byte>> src(kXfers), dst(kXfers);
  std::vector<rdma::MemoryRegion> ms(kXfers), md(kXfers);
  for (int i = 0; i < kXfers; ++i) {
    src[i].resize(kLen);
    dst[i].resize(kLen);
    ms[i] = h.d0->reg_mr(src[i].data(), kLen);
    md[i] = h.d1->reg_mr(dst[i].data(), kLen);
    fill_pattern(src[i].data(), kLen, static_cast<uint32_t>(10 + i));
  }
  for (int i = 0; i < kXfers; ++i)
    h.c0->post(bulk_req(1, src[i].data(), kLen, ms[i].lkey, dst[i].data(), md[i].rkey,
                        static_cast<uint64_t>(i)));

  h.wait_for(kXfers);
  for (int i = 0; i < kXfers; ++i)
    EXPECT_TRUE(matches_pattern(dst[i].data(), kLen, static_cast<uint32_t>(10 + i)))
        << "transfer " << i;
  const auto rs = h.c0->rndz_stats();
  // With one lease and a slow FIN, later transfers must have fallen back; no
  // transfer may be lost either way.
  EXPECT_GE(rs.started, 1u);
  EXPECT_GE(rs.fallbacks, 1u);
  EXPECT_EQ(rs.started + rs.fallbacks, static_cast<uint64_t>(kXfers));
  h.wait_rndz_completed(rs.started);
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
}

TEST(Rendezvous, UnpullableDestinationNaksBackToEagerPath) {
  // The receiver cannot translate the advertised destination (bogus rkey):
  // it must NAK, and the sender must re-drive the transfer down the eager
  // path — where the same bogus rkey surfaces through the error handler
  // instead of hanging the lease forever.
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  RndzHarness h(base);
  std::atomic<int> failures{0};
  h.c0->set_error_handler([&](const CommError&) {
    failures.fetch_add(1, std::memory_order_release);
    failures.notify_all();
  });
  h.start();
  constexpr uint32_t kLen = 64 * 1024;
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  h.d1->reg_mr(dst.data(), dst.size());

  h.c0->post(bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), /*rkey=*/0xdead, 0));
  spin_wait_until(failures, [](int v) { return v >= 1; });

  const auto rs = h.c0->rndz_stats();
  EXPECT_EQ(rs.started, 1u);
  EXPECT_EQ(rs.fallbacks, 1u);
  EXPECT_EQ(rs.completed, 0u);
  EXPECT_EQ(h.fabric.stats().bytes_rndz, 0u);
}

// Chaos: WC errors, RNR windows, and latency spikes land mid-rendezvous. The
// pull must re-arm (retried READs) or fall back to eager; either way every
// transfer's bytes arrive intact before its notification, small-message FIFO
// is preserved, and nothing is dropped or duplicated.
void chaos_rendezvous_round_trip(uint64_t seed) {
  chaos::FaultPlan p;
  p.seed = seed;
  p.p_wc_error = 0.05;
  p.p_rnr = 0.03;
  p.rnr_window_ns = 100'000;
  p.p_delay = 0.05;
  p.delay_min_ns = 5'000;
  p.delay_max_ns = 50'000;
  ClusterConfig base;
  base.rendezvous_threshold_bytes = 32 * 1024;
  base.rendezvous_mtu_bytes = 16 * 1024;  // several READ WRs per pull
  RndzHarness h(base, p);
  h.start();

  constexpr uint32_t kLen = 128 * 1024;
  constexpr int kRounds = 20;
  constexpr int kSmallPerRound = 5;
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());

  int seq = 0;
  for (int r = 0; r < kRounds; ++r) {
    fill_pattern(src.data(), kLen, static_cast<uint32_t>(r));
    std::atomic<uint32_t> released{0};
    // Small eager messages interleaved with the bulk transfer: their FIFO
    // order must survive rendezvous traffic sharing the QP.
    for (int i = 0; i < kSmallPerRound; ++i) {
      TxRequest s;
      s.dst = 1;
      s.hdr.type = MsgType::kInvAck;
      s.hdr.chunk = static_cast<uint64_t>(seq++);
      h.c0->post(std::move(s));
    }
    TxRequest t = bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), md.rkey,
                           static_cast<uint64_t>(1000 + r));
    t.posted_flag = &released;
    h.c0->post(std::move(t));
    h.wait_for((r + 1) * (kSmallPerRound + 1));
    EXPECT_TRUE(matches_pattern(dst.data(), kLen, static_cast<uint32_t>(r)))
        << "round " << r << " seed " << seed;
    // The source stays pinned until FIN (or eager staging on fallback);
    // reusing it next round requires the release flag.
    spin_wait_until(released, [](uint32_t v) { return v != 0; });
  }

  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kRounds * (kSmallPerRound + 1)));
  // Per-type FIFO: the small-message sequence numbers appear in order, and
  // each round's notification arrives exactly once.
  uint64_t next_small = 0;
  uint64_t next_bulk = 1000;
  for (const RpcMessage& m : h.inbox1) {
    if (m.hdr.type == MsgType::kInvAck) {
      EXPECT_EQ(m.hdr.chunk, next_small++) << "seed " << seed;
    } else {
      ASSERT_EQ(m.hdr.type, MsgType::kReadData);
      EXPECT_EQ(m.hdr.chunk, next_bulk++) << "seed " << seed;
    }
  }
  EXPECT_EQ(next_small, static_cast<uint64_t>(kRounds * kSmallPerRound));
  EXPECT_EQ(next_bulk, static_cast<uint64_t>(1000 + kRounds));
  // Sequential rounds never exhaust the lease table, so every fallback is a
  // NAK and every started rendezvous resolves (FIN or NAK). finish_lease
  // releases the source before it counts the completion, so the last round's
  // count can trail its release flag: wait for it, bounded.
  const auto resolved = [&h] {
    const auto r = h.c0->rndz_stats();
    return r.completed + r.fallbacks >= r.started;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!resolved() && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
  const auto rs = h.c0->rndz_stats();
  EXPECT_EQ(rs.started, rs.completed + rs.fallbacks) << "seed " << seed;
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
  EXPECT_EQ(h.c1->dropped_requests(), 0u);
  EXPECT_GT(h.fabric.stats().wc_errors, 0u) << "plan should have injected faults";
}

TEST(RendezvousChaos, Seed1PreservesIntegrityAndFifo) { chaos_rendezvous_round_trip(1); }
TEST(RendezvousChaos, Seed7PreservesIntegrityAndFifo) { chaos_rendezvous_round_trip(7); }
TEST(RendezvousChaos, Seed42PreservesIntegrityAndFifo) { chaos_rendezvous_round_trip(42); }

TEST(Rendezvous, DisabledConfigNeverNegotiates) {
  ClusterConfig base;
  base.rendezvous_enabled = false;
  RndzHarness h(base);
  h.start();
  constexpr uint32_t kLen = 256 * 1024;
  std::vector<std::byte> src(kLen), dst(kLen);
  rdma::MemoryRegion ms = h.d0->reg_mr(src.data(), src.size());
  rdma::MemoryRegion md = h.d1->reg_mr(dst.data(), dst.size());
  fill_pattern(src.data(), kLen, 9);
  h.c0->post(bulk_req(1, src.data(), kLen, ms.lkey, dst.data(), md.rkey, 0));
  h.wait_for(1);
  EXPECT_TRUE(matches_pattern(dst.data(), kLen, 9));
  EXPECT_EQ(h.c0->rndz_stats().started, 0u);
  EXPECT_EQ(h.fabric.stats().reads, 0u);
}

}  // namespace
}  // namespace darray::net
