// Small-message coalescing engine (docs/perf.md): batch framing round-trip,
// Tx cutoff behaviour (bytes / frame count / oversize split), the off-config
// matching the uncoalesced engine, and frame-exact replay order under
// injected QP errors.
#include <gtest/gtest.h>

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

// Two nodes' comm layers over one fabric, configurable, with messages
// optionally queued before start() so the progress thread's first Tx pass
// sees them all at once — that makes batch formation deterministic.
struct Harness {
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

  explicit Harness(ClusterConfig base = {}, chaos::FaultPlan p = {}) : cfg(base), plan(p) {
    cfg.num_nodes = 2;
    if (plan.enabled()) {
      cfg.fault_plan = &plan;
      cfg.qp_depth = 64;
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

  ~Harness() {
    c0->stop();
    c1->stop();
  }

  void wait_for(int n) {
    spin_wait_until(received, [n](int v) { return v >= n; });
  }
};

TxRequest inv_ack(uint16_t dst, uint64_t chunk) {
  TxRequest t;
  t.dst = dst;
  t.hdr.type = MsgType::kInvAck;
  t.hdr.chunk = chunk;
  return t;
}

// --- framing round-trip (no comm layer) --------------------------------------

TEST(BatchFraming, PackUnpackRoundTrip) {
  constexpr int kFrames = 5;
  std::vector<std::byte> wire(4096);
  size_t off = sizeof(MsgHeader);  // envelope slot
  std::vector<MsgHeader> hdrs;
  std::vector<std::vector<std::byte>> payloads;
  for (int i = 0; i < kFrames; ++i) {
    MsgHeader h;
    h.type = MsgType::kOpFlush;
    h.src_node = 3;
    h.chunk = static_cast<uint64_t>(100 + i);
    std::vector<std::byte> pl(static_cast<size_t>(i) * 17);
    for (size_t j = 0; j < pl.size(); ++j) pl[j] = static_cast<std::byte>(i + j);
    h.payload_len = static_cast<uint32_t>(pl.size());
    off += write_frame(wire.data() + off, h, pl.data(), pl.size());
    hdrs.push_back(h);
    payloads.push_back(std::move(pl));
  }
  const size_t frame_bytes_total = off - sizeof(MsgHeader);
  write_batch_header(wire.data(), 3, kFrames, frame_bytes_total);

  MsgHeader bh;
  std::memcpy(&bh, wire.data(), sizeof(MsgHeader));
  EXPECT_EQ(bh.type, MsgType::kBatch);
  EXPECT_EQ(bh.src_node, 3u);
  EXPECT_EQ(bh.aux, static_cast<uint32_t>(kFrames));
  EXPECT_EQ(bh.payload_len, frame_bytes_total);

  BatchReader r(wire.data() + sizeof(MsgHeader), frame_bytes_total, kFrames);
  MsgHeader fh;
  const std::byte* fp = nullptr;
  int i = 0;
  while (r.next(fh, fp)) {
    ASSERT_LT(i, kFrames);
    EXPECT_EQ(fh.type, hdrs[static_cast<size_t>(i)].type);
    EXPECT_EQ(fh.chunk, hdrs[static_cast<size_t>(i)].chunk);
    ASSERT_EQ(fh.payload_len, payloads[static_cast<size_t>(i)].size());
    // memcmp with a null pointer is undefined even for length 0.
    if (fh.payload_len > 0) {
      EXPECT_EQ(std::memcmp(fp, payloads[static_cast<size_t>(i)].data(), fh.payload_len), 0);
    }
    ++i;
  }
  EXPECT_EQ(i, kFrames);
  EXPECT_TRUE(r.valid());
}

TEST(BatchFraming, DetectsTruncationAndTrailingBytes) {
  std::vector<std::byte> wire(1024);
  MsgHeader h;
  h.type = MsgType::kInvAck;
  h.payload_len = 64;
  std::vector<std::byte> pl(64, std::byte{0xAB});
  const size_t fb = write_frame(wire.data(), h, pl.data(), pl.size());

  // Image cut short of the advertised payload: malformed, not valid.
  {
    BatchReader r(wire.data(), fb - 10, 1);
    MsgHeader fh;
    const std::byte* fp = nullptr;
    EXPECT_FALSE(r.next(fh, fp));
    EXPECT_FALSE(r.valid());
  }
  // Trailing bytes beyond the advertised frame count: parses but not valid.
  {
    BatchReader r(wire.data(), fb + 8, 1);
    MsgHeader fh;
    const std::byte* fp = nullptr;
    EXPECT_TRUE(r.next(fh, fp));
    EXPECT_FALSE(r.next(fh, fp));
    EXPECT_FALSE(r.valid());
  }
  // Exact image: valid.
  {
    BatchReader r(wire.data(), fb, 1);
    MsgHeader fh;
    const std::byte* fp = nullptr;
    EXPECT_TRUE(r.next(fh, fp));
    EXPECT_TRUE(r.valid());
  }
}

// --- Tx engine behaviour -----------------------------------------------------

TEST(Coalesce, BurstSharesWireSends) {
  Harness h;
  constexpr int kMsgs = 100;
  // Queue the burst before the progress thread exists: its first Tx pass sees
  // every message and must pack them (default coalesce_max_frames = 32).
  for (int i = 0; i < kMsgs; ++i) h.c0->post(inv_ack(1, static_cast<uint64_t>(i)));
  h.start();
  h.wait_for(kMsgs);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(h.inbox1[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
  const rdma::FabricStats s = h.fabric.stats();
  // 100 header-only frames at 32/batch → 4 wire SENDs in one doorbell span.
  EXPECT_LT(s.sends, static_cast<uint64_t>(kMsgs) / 2);
  EXPECT_GE(s.coalesced_frames, static_cast<uint64_t>(kMsgs) - 32);
  EXPECT_GE(s.batched_posts, 1u);
}

TEST(Coalesce, ByteCutoffSplitsAtMaxMsgBytes) {
  ClusterConfig cfg;
  cfg.chunk_elems = 8;  // max_msg_bytes = 48 + 8*16 = 176
  Harness h(cfg);
  ASSERT_EQ(h.c0->max_msg_bytes(), 176u);
  // Header-only frames are 48 B; envelope (48) + 2 frames = 144 ≤ 176, a 3rd
  // would need 192 → batches of exactly 2.
  constexpr int kMsgs = 7;
  for (int i = 0; i < kMsgs; ++i) h.c0->post(inv_ack(1, static_cast<uint64_t>(i)));
  h.start();
  h.wait_for(kMsgs);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(h.inbox1[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
  const rdma::FabricStats s = h.fabric.stats();
  // [2][2][2][1]: three multi-frame batches plus a bare singleton.
  EXPECT_EQ(s.sends, 4u);
  EXPECT_EQ(s.coalesced_frames, 6u);
}

TEST(Coalesce, OversizeFrameGoesOutAloneInPlainFormat) {
  ClusterConfig cfg;
  cfg.chunk_elems = 8;  // max_msg_bytes = 176
  Harness h(cfg);
  // A max-size payload (128 B → 176 B frame) cannot share a buffer with the
  // envelope; it must ship bare, between its neighbours, in order.
  TxRequest big;
  big.dst = 1;
  big.hdr.type = MsgType::kOpFlush;
  big.hdr.chunk = 1;
  big.payload.resize(128);
  for (size_t i = 0; i < 128; ++i) big.payload[i] = static_cast<std::byte>(i ^ 0x5A);
  const PayloadBuf expect = big.payload;

  h.c0->post(inv_ack(1, 0));
  h.c0->post(std::move(big));
  h.c0->post(inv_ack(1, 2));
  h.start();
  h.wait_for(3);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(h.inbox1[i].hdr.chunk, i);
  EXPECT_EQ(h.inbox1[1].payload, expect);
  const rdma::FabricStats s = h.fabric.stats();
  // Singleton, oversize, singleton — nothing shared a SEND.
  EXPECT_EQ(s.sends, 3u);
  EXPECT_EQ(s.coalesced_frames, 0u);
}

TEST(Coalesce, FrameCountCutoff) {
  ClusterConfig cfg;
  cfg.coalesce_max_frames = 2;
  Harness h(cfg);
  constexpr int kMsgs = 5;
  for (int i = 0; i < kMsgs; ++i) h.c0->post(inv_ack(1, static_cast<uint64_t>(i)));
  h.start();
  h.wait_for(kMsgs);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(h.inbox1[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
  const rdma::FabricStats s = h.fabric.stats();
  // [2][2][1]
  EXPECT_EQ(s.sends, 3u);
  EXPECT_EQ(s.coalesced_frames, 4u);
}

TEST(Coalesce, DisabledMatchesUncoalescedWireBehaviour) {
  ClusterConfig cfg;
  cfg.coalesce_enabled = false;
  Harness h(cfg);
  constexpr int kMsgs = 50;
  for (int i = 0; i < kMsgs; ++i) h.c0->post(inv_ack(1, static_cast<uint64_t>(i)));
  h.start();
  h.wait_for(kMsgs);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(h.inbox1[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
  const rdma::FabricStats s = h.fabric.stats();
  // Pre-coalescing contract: one wire SEND per message, engine never batches.
  EXPECT_EQ(s.sends, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(s.coalesced_frames, 0u);
  EXPECT_EQ(s.batched_posts, 0u);
}

// Two threads post to one peer on a live link: a post runs the Tx pass inline
// when the Tx lock is free and queues behind the holder otherwise, and a
// backlog queued before start() goes through the progress thread's first Tx
// pass. Each poster's messages must still arrive in its own order.
TEST(Coalesce, InlineAndQueuedPostsKeepPerPeerFifo) {
  Harness h;
  constexpr uint64_t kEach = 3000;
  constexpr uint64_t kQueued = 100;
  const auto tag = [](uint64_t poster, uint64_t seq) { return poster << 32 | seq; };
  for (uint64_t i = 0; i < kQueued; ++i) h.c0->post(inv_ack(1, tag(0, i)));
  h.start();
  std::thread other([&] {
    for (uint64_t i = 0; i < kEach; ++i) h.c0->post(inv_ack(1, tag(1, i)));
  });
  for (uint64_t i = kQueued; i < kEach; ++i) h.c0->post(inv_ack(1, tag(0, i)));
  other.join();
  int expected = static_cast<int>(2 * kEach);
  h.wait_for(expected);
  // During the burst every post may have queued behind one long Tx-thread
  // pass; on a quiet link a lone post runs the pass itself.
  uint64_t quiet = 0;
  while (quiet < 100 && h.c0->tx_pass_stats().inline_passes == 0) {
    h.c0->post(inv_ack(1, tag(2, quiet++)));
    h.wait_for(++expected);
  }
  EXPECT_GT(h.c0->tx_pass_stats().inline_passes, 0u);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(expected));
  uint64_t next[3] = {0, 0, 0};
  for (const RpcMessage& m : h.inbox1) {
    const uint64_t poster = m.hdr.chunk >> 32;
    ASSERT_LT(poster, 3u);
    ASSERT_EQ(m.hdr.chunk & 0xffffffffu, next[poster]) << "poster " << poster;
    ++next[poster];
  }
  EXPECT_GT(h.fabric.stats().coalesced_frames, 0u);  // the queued backlog packed
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
}

// --- chaos: QP-error replay preserves frame order ----------------------------

chaos::FaultPlan replay_plan(uint64_t seed) {
  chaos::FaultPlan p;
  p.seed = seed;
  p.p_wc_error = 0.15;  // coalescing shrinks the WR count, so inject harder
  p.p_rnr = 0.05;
  p.rnr_window_ns = 100'000;
  p.p_delay = 0.05;
  p.delay_min_ns = 5'000;
  p.delay_max_ns = 50'000;
  return p;
}

class CoalesceReplay : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalesceReplay, QpErrorReplayPreservesFrameOrder) {
  ClusterConfig cfg;
  cfg.coalesce_max_frames = 8;  // more wire SENDs → more injected faults
  Harness h(cfg, replay_plan(GetParam()));
  // Half the stream queued before start (guarantees multi-frame batches in
  // the first drain), half posted live (overlaps recovery staging, so frame
  // order must hold both inside a replayed batch and across batches).
  constexpr int kEach = 800;
  for (int i = 0; i < kEach / 2; ++i) {
    h.c0->post(inv_ack(1, static_cast<uint64_t>(i)));
    h.c1->post(inv_ack(0, static_cast<uint64_t>(i)));
  }
  h.start();
  for (int i = kEach / 2; i < kEach; ++i) {
    h.c0->post(inv_ack(1, static_cast<uint64_t>(i)));
    h.c1->post(inv_ack(0, static_cast<uint64_t>(i)));
  }
  h.wait_for(2 * kEach);
  std::scoped_lock lk(h.mu);
  ASSERT_EQ(h.inbox0.size(), static_cast<size_t>(kEach));
  ASSERT_EQ(h.inbox1.size(), static_cast<size_t>(kEach));
  for (int i = 0; i < kEach; ++i) {
    EXPECT_EQ(h.inbox0[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
    EXPECT_EQ(h.inbox1[static_cast<size_t>(i)].hdr.chunk, static_cast<uint64_t>(i));
  }
  const rdma::FabricStats s = h.fabric.stats();
  EXPECT_GT(s.coalesced_frames, 0u);  // batches actually formed
  EXPECT_GT(s.wc_errors, 0u);        // faults actually fired
  EXPECT_GT(s.retries, 0u);          // and were replayed, not dropped
  EXPECT_EQ(h.c0->dropped_requests(), 0u);
  EXPECT_EQ(h.c1->dropped_requests(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceReplay, ::testing::Values(1u, 7u, 42u));

}  // namespace
}  // namespace darray::net
