// Exercises the protocol state machine: Shared/Dirty transfers, invalidation,
// eviction + writeback under a deliberately tiny cache, and mixed sharing.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::run_on_nodes;
using testing::small_cfg;

// Dirty ownership ping-pong: alternating writers force repeated fetches.
TEST(DArrayCoherence, WritePingPong) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 128);
  const uint64_t idx = 5;
  for (int round = 0; round < 20; ++round) {
    const rt::NodeId writer = round % 2;
    std::thread t([&, writer, round] {
      bind_thread(cluster, writer);
      EXPECT_EQ(a.get(idx), static_cast<uint64_t>(round));  // sees prior write
      a.set(idx, static_cast<uint64_t>(round + 1));
    });
    t.join();
  }
  std::thread t([&] {
    bind_thread(cluster, 0);
    EXPECT_EQ(a.get(idx), 20u);
  });
  t.join();
}

// Readers on all nodes share; a subsequent write invalidates them.
TEST(DArrayCoherence, WriteAfterSharedReaders) {
  rt::Cluster cluster(small_cfg(3));
  auto a = DArray<uint64_t>::create(cluster, 192);
  const uint64_t idx = 7;  // homed at node 0
  run_on_nodes(cluster, [&](rt::NodeId) { EXPECT_EQ(a.get(idx), 0u); });
  std::thread w([&] {
    bind_thread(cluster, 2);
    a.set(idx, 31337);  // invalidates node 1's (and home's) read copies
  });
  w.join();
  run_on_nodes(cluster, [&](rt::NodeId) { EXPECT_EQ(a.get(idx), 31337u); });
}

// A cache far smaller than the working set forces eviction + writeback; every
// written value must survive the round trip through the home node.
TEST(DArrayCoherence, EvictionWritebackPreservesData) {
  for (const uint32_t lines : {8u, 4u}) {
    SCOPED_TRACE("cachelines " + std::to_string(lines));
    rt::ClusterConfig cfg = small_cfg(2, /*chunk_elems=*/16, lines);
    rt::Cluster cluster(cfg);
    // 64 chunks per node's half — node 1 can cache at most `lines` at a time.
    auto a = DArray<uint64_t>::create(cluster, 16 * 128);
    std::thread t([&] {
      bind_thread(cluster, 1);
      // Write node 0's entire half remotely.
      for (uint64_t i = a.local_begin(0); i < a.local_end(0); ++i) a.set(i, i * 11);
    });
    t.join();
    std::thread t2([&] {
      bind_thread(cluster, 0);
      for (uint64_t i = a.local_begin(0); i < a.local_end(0); ++i)
        ASSERT_EQ(a.get(i), i * 11) << "lost update at " << i;
    });
    t2.join();
  }
}

// Read-only eviction: repeated sweeps re-fetch silently dropped chunks.
TEST(DArrayCoherence, ReadEvictionRefetches) {
  rt::ClusterConfig cfg = small_cfg(2, 16, 8);
  rt::Cluster cluster(cfg);
  auto a = DArray<uint64_t>::create(cluster, 16 * 64);
  std::thread home([&] {
    bind_thread(cluster, 0);
    for (uint64_t i = a.local_begin(0); i < a.local_end(0); ++i) a.set(i, i + 1);
  });
  home.join();
  std::thread t([&] {
    bind_thread(cluster, 1);
    for (int sweep = 0; sweep < 3; ++sweep)
      for (uint64_t i = a.local_begin(0); i < a.local_end(0); ++i)
        ASSERT_EQ(a.get(i), i + 1);
  });
  t.join();
}

// Concurrent readers on the same chunk from many threads (lock-free path).
TEST(DArrayCoherence, ConcurrentReadersSameChunk) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 128);
  std::thread init([&] {
    bind_thread(cluster, 0);
    a.set(3, 777);
  });
  init.join();
  testing::run_on_nodes_mt(cluster, 3, [&](rt::NodeId, uint32_t) {
    for (int i = 0; i < 200; ++i) ASSERT_EQ(a.get(3), 777u);
  });
}

// Interleaved writers on different elements of the same remote chunk
// (ownership bounces, but updates must all survive).
TEST(DArrayCoherence, InterleavedWritersSameChunkDifferentElems) {
  rt::Cluster cluster(small_cfg(3));
  auto a = DArray<uint64_t>::create(cluster, 192);
  run_on_nodes(cluster, [&](rt::NodeId n) {
    for (int round = 0; round < 30; ++round) a.set(n, static_cast<uint64_t>(round * 3 + n));
  });
  run_on_nodes(cluster, [&](rt::NodeId) {
    for (rt::NodeId n = 0; n < 3; ++n) EXPECT_EQ(a.get(n), 29u * 3 + n);
  });
}

// Home reading back a chunk that a remote node dirtied (fetch to Shared).
TEST(DArrayCoherence, HomeReadAfterRemoteWrite) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 128);
  std::thread w([&] {
    bind_thread(cluster, 1);
    a.set(0, 1001);
  });
  w.join();
  std::thread r([&] {
    bind_thread(cluster, 0);
    EXPECT_EQ(a.get(0), 1001u);
  });
  r.join();
  // Node 1's copy (downgraded to Shared) must still read correctly.
  std::thread r2([&] {
    bind_thread(cluster, 1);
    EXPECT_EQ(a.get(0), 1001u);
  });
  r2.join();
}

// Home writing a chunk a remote node dirtied (fetch to Invalid).
TEST(DArrayCoherence, HomeWriteAfterRemoteWrite) {
  rt::Cluster cluster(small_cfg(2));
  auto a = DArray<uint64_t>::create(cluster, 128);
  std::thread w([&] {
    bind_thread(cluster, 1);
    a.set(9, 55);
  });
  w.join();
  std::thread h([&] {
    bind_thread(cluster, 0);
    EXPECT_EQ(a.get(9), 55u);
    a.set(9, 56);
  });
  h.join();
  std::thread r([&] {
    bind_thread(cluster, 1);
    EXPECT_EQ(a.get(9), 56u);
  });
  r.join();
}

// Sequential-consistency smoke: message-passing pattern through two elements
// in different chunks, repeated; the flag must never be observed without the
// data.
TEST(DArrayCoherence, MessagePassingPattern) {
  rt::Cluster cluster(small_cfg(2, 16));
  auto a = DArray<uint64_t>::create(cluster, 256);
  const uint64_t data_idx = 1;        // chunk 0
  const uint64_t flag_idx = 17;       // chunk 1
  for (uint64_t round = 1; round <= 10; ++round) {
    std::thread producer([&] {
      bind_thread(cluster, 1);
      a.set(data_idx, round * 100);
      a.set(flag_idx, round);
    });
    std::thread consumer([&] {
      bind_thread(cluster, 0);
      while (a.get(flag_idx) < round) std::this_thread::yield();
      EXPECT_EQ(a.get(data_idx), round * 100);
    });
    producer.join();
    consumer.join();
  }
}

}  // namespace
}  // namespace darray
