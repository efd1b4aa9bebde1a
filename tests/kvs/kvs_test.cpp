// Typed tests: the DArray-backed KVS and the GAM-backed KVS must behave
// identically (the paper compares their performance, not semantics).
#include "kvs/kvs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tests/test_util.hpp"

namespace darray::kvs {
namespace {

using darray::testing::run_on_nodes;
using darray::testing::small_cfg;

template <typename K>
class KvsTest : public ::testing::Test {};

using KvsTypes = ::testing::Types<DKvs, GamKvs>;

class KvsNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, DKvs>) return "DArrayKvs";
    return "GamKvs";
  }
};

TYPED_TEST_SUITE(KvsTest, KvsTypes, KvsNames);

KvsConfig tiny_cfg() {
  KvsConfig c;
  c.n_main_buckets = 64;
  c.n_overflow_buckets = 32;
  c.byte_capacity = 4 << 20;
  return c;
}

TYPED_TEST(KvsTest, PutGetRoundTrip) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  EXPECT_TRUE(kvs.put("hello", "world"));
  auto v = kvs.get("hello");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "world");
}

TYPED_TEST(KvsTest, MissingKeyNotFound) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  EXPECT_FALSE(kvs.get("nope").has_value());
}

TYPED_TEST(KvsTest, UpdateReplacesValue) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  EXPECT_TRUE(kvs.put("k", "v1"));
  EXPECT_TRUE(kvs.put("k", "a-much-longer-second-value"));
  EXPECT_EQ(*kvs.get("k"), "a-much-longer-second-value");
  // The old blob must have been freed (no leak): usage equals one blob.
  EXPECT_EQ(kvs.bytes_in_use(),
            SlabAllocator::class_bytes(2 + 1 + 26));
}

TYPED_TEST(KvsTest, EraseRemoves) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  EXPECT_TRUE(kvs.put("k", "v"));
  EXPECT_TRUE(kvs.erase("k"));
  EXPECT_FALSE(kvs.get("k").has_value());
  EXPECT_FALSE(kvs.erase("k"));
  EXPECT_EQ(kvs.bytes_in_use(), 0u);
}

TYPED_TEST(KvsTest, ManyKeysWithOverflowChains) {
  rt::Cluster cluster(small_cfg(2));
  KvsConfig cfg = tiny_cfg();
  cfg.n_main_buckets = 4;        // force long chains: 600 keys over 4 buckets
  cfg.n_overflow_buckets = 64;   // 600/4 keys per chain needs 9 overflow buckets each
  auto kvs = TypeParam::create(cluster, cfg);
  bind_thread(cluster, 0);
  for (int i = 0; i < 600; ++i)
    ASSERT_TRUE(kvs.put("key" + std::to_string(i), "value" + std::to_string(i * 7)));
  for (int i = 0; i < 600; ++i) {
    auto v = kvs.get("key" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i * 7));
  }
}

TYPED_TEST(KvsTest, CrossNodeVisibility) {
  rt::Cluster cluster(small_cfg(3));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  run_on_nodes(cluster, [&](rt::NodeId n) {
    ASSERT_TRUE(kvs.put("node" + std::to_string(n), "from" + std::to_string(n)));
  });
  run_on_nodes(cluster, [&](rt::NodeId) {
    for (rt::NodeId n = 0; n < 3; ++n) {
      auto v = kvs.get("node" + std::to_string(n));
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, "from" + std::to_string(n));
    }
  });
}

TYPED_TEST(KvsTest, ConcurrentMixedWorkload) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  darray::testing::run_on_nodes_mt(cluster, 2, [&](rt::NodeId n, uint32_t t) {
    for (int i = 0; i < 50; ++i) {
      const std::string key = "k" + std::to_string(i % 10);
      if ((i + n + t) % 3 == 0) {
        kvs.put(key, "v" + std::to_string(n) + std::to_string(t) + std::to_string(i));
      } else {
        auto v = kvs.get(key);  // value varies; must never crash or tear
        if (v) {
          EXPECT_EQ((*v)[0], 'v');
        }
      }
    }
  });
}

TYPED_TEST(KvsTest, LargeValues) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  const std::string big(40'000, 'B');
  EXPECT_TRUE(kvs.put("big", big));
  EXPECT_EQ(*kvs.get("big"), big);
  // Over the 16-bit size limit: rejected, not corrupted.
  EXPECT_FALSE(kvs.put("huge", std::string(70'000, 'H')));
  EXPECT_EQ(*kvs.get("big"), big);
}

TYPED_TEST(KvsTest, ContainsProbesWithoutValue) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  EXPECT_FALSE(kvs.contains("k"));
  EXPECT_TRUE(kvs.put("k", std::string(5000, 'v')));
  EXPECT_TRUE(kvs.contains("k"));
  EXPECT_TRUE(kvs.erase("k"));
  EXPECT_FALSE(kvs.contains("k"));
}

TYPED_TEST(KvsTest, EmptyValue) {
  rt::Cluster cluster(small_cfg(2));
  auto kvs = TypeParam::create(cluster, tiny_cfg());
  bind_thread(cluster, 0);
  EXPECT_TRUE(kvs.put("k", ""));
  auto v = kvs.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "");
}

// Lock-free gets against writers that grow overflow chains and recycle
// blobs. Every value names its key, writer and sequence number and carries a
// checksum, so a get that returned bytes from a torn chain or a reused blob
// fails the check. Each key has one writer; once its put is acked, the
// writer's own get must return exactly that value.
std::string checked_value(const std::string& key, uint32_t writer, uint64_t seq,
                          size_t pad) {
  std::string v = key + "|" + std::to_string(writer) + "|" + std::to_string(seq) + "|";
  v.resize(v.size() + pad, '.');
  return v + "#" + std::to_string(fnv1a(v));
}

// Parse a value written by checked_value for `key`; false when malformed.
bool well_formed(const std::string& key, const std::string& v, uint32_t* writer = nullptr,
                 uint64_t* seq = nullptr) {
  const size_t hash = v.rfind('#');
  if (hash == std::string::npos) return false;
  const std::string body = v.substr(0, hash);
  if (v.substr(hash + 1) != std::to_string(fnv1a(body))) return false;
  if (body.compare(0, key.size() + 1, key + "|") != 0) return false;
  const size_t w_end = body.find('|', key.size() + 1);
  if (w_end == std::string::npos) return false;
  const size_t s_end = body.find('|', w_end + 1);
  if (s_end == std::string::npos) return false;
  if (writer) *writer = static_cast<uint32_t>(std::stoul(body.substr(key.size() + 1)));
  if (seq) *seq = std::stoull(body.substr(w_end + 1, s_end - w_end - 1));
  return true;
}

TYPED_TEST(KvsTest, LockFreeGetUnderConcurrentPutsAndChainGrowth) {
  // Per node, thread 0 is a chain writer: it puts, erases and re-puts its own
  // keys, growing overflow chains, and reads everyone's. Thread 1 is a hot
  // writer: it rewrites a few long values in a tight loop, so each put frees
  // the blob that the next put of the same size reuses while readers' long
  // copies of it may still be running.
  constexpr uint32_t kNodes = 2, kThreads = 2;
  constexpr uint32_t kKeysPerWriter = 440;  // chain writers
  constexpr uint32_t kHotPerWriter = 2;     // hot writers
  constexpr size_t kHotPad = 1500;
  constexpr int kRounds = 3;
  auto key_of = [](uint32_t w, uint32_t i) {
    return "w" + std::to_string(w) + "-" + std::to_string(i);
  };
  auto hot_key_of = [](uint32_t w, uint32_t i) {
    return "hot" + std::to_string(w) + "-" + std::to_string(i);
  };
  auto chain_writer = [](uint32_t n) { return n * kThreads; };
  auto hot_writer = [](uint32_t n) { return n * kThreads + 1; };
  // The key set must overflow some main buckets (chains grow while readers
  // walk them) without running out of overflow buckets.
  const KvsConfig cfg = tiny_cfg();
  std::vector<uint32_t> per_bucket(cfg.n_main_buckets, 0);
  for (uint32_t n = 0; n < kNodes; ++n) {
    for (uint32_t i = 0; i < kKeysPerWriter; ++i)
      ++per_bucket[fnv1a(key_of(chain_writer(n), i)) % cfg.n_main_buckets];
    for (uint32_t i = 0; i < kHotPerWriter; ++i)
      ++per_bucket[fnv1a(hot_key_of(hot_writer(n), i)) % cfg.n_main_buckets];
  }
  uint64_t overflow_needed = 0;
  for (uint32_t c : per_bucket)
    overflow_needed += c > TypeParam::kEntriesPerBucket
                           ? (c - 1) / TypeParam::kEntriesPerBucket
                           : 0;
  ASSERT_GT(overflow_needed, 0u);
  ASSERT_LE(overflow_needed, cfg.n_overflow_buckets);

  rt::Cluster cluster(small_cfg(kNodes));
  auto kvs = TypeParam::create(cluster, cfg);
  std::atomic<uint32_t> chains_done{0};
  std::atomic<uint64_t> foreign_reads{0}, hot_puts{0};
  darray::testing::run_on_nodes_mt(cluster, kThreads, [&](rt::NodeId n, uint32_t t) {
    const uint32_t me = n * kThreads + t;
    Xoshiro256 rng(1234 + me);
    // Another writer's value for `key` must be well-formed and name them.
    auto check_foreign = [&](const std::string& key, uint32_t w) {
      const auto v = kvs.get(key);
      if (!v) return;
      uint32_t writer = 0;
      ASSERT_TRUE(well_formed(key, *v, &writer)) << key << " -> " << *v;
      ASSERT_EQ(writer, w) << key;
      foreign_reads.fetch_add(1, std::memory_order_relaxed);
    };
    auto read_some_hot = [&] {
      const uint32_t hw = hot_writer(static_cast<uint32_t>(rng.next() % kNodes));
      check_foreign(hot_key_of(hw, static_cast<uint32_t>(rng.next() % kHotPerWriter)), hw);
    };

    if (t == 1) {  // hot writer: runs until both chain writers are done
      for (uint64_t seq = 1; chains_done.load() < kNodes; ++seq) {
        const std::string hot = hot_key_of(me, seq % kHotPerWriter);
        ASSERT_TRUE(kvs.put(hot, checked_value(hot, me, seq, kHotPad))) << hot;
        hot_puts.fetch_add(1, std::memory_order_relaxed);
        read_some_hot();
      }
      return;
    }
    // A failed assertion returns early: still release the hot writers.
    struct Done {
      std::atomic<uint32_t>& n;
      ~Done() { n.fetch_add(1); }
    } done{chains_done};
    uint64_t seq = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (uint32_t i = 0; i < kKeysPerWriter; ++i) {
        const std::string key = key_of(me, i);
        if (round > 0 && i % 5 == 0) {
          // Erase, then put: the freed blob goes back to the slab, where
          // another writer's put may reuse it under a concurrent reader.
          ASSERT_TRUE(kvs.erase(key)) << key;
          ASSERT_FALSE(kvs.contains(key)) << key;
        }
        ++seq;
        const std::string val = checked_value(key, me, seq, seq % 23);
        ASSERT_TRUE(kvs.put(key, val)) << key;
        const auto got = kvs.get(key);
        ASSERT_TRUE(got.has_value()) << "acked put not readable: " << key;
        ASSERT_EQ(*got, val);
        ASSERT_TRUE(kvs.contains(key)) << key;

        const uint32_t w = chain_writer(static_cast<uint32_t>(rng.next() % kNodes));
        check_foreign(key_of(w, static_cast<uint32_t>(rng.next() % kKeysPerWriter)), w);
        read_some_hot();
        read_some_hot();
      }
    }
  });
  EXPECT_GT(foreign_reads.load(), 0u);
  EXPECT_GT(hot_puts.load(), 0u);
  // Quiesced: every chain key holds its writer's last value.
  bind_thread(cluster, 0);
  for (uint32_t n = 0; n < kNodes; ++n) {
    const uint32_t w = chain_writer(n);
    for (uint32_t i = 0; i < kKeysPerWriter; ++i) {
      const auto v = kvs.get(key_of(w, i));
      ASSERT_TRUE(v.has_value()) << key_of(w, i);
      uint32_t writer = 0;
      uint64_t seq = 0;
      ASSERT_TRUE(well_formed(key_of(w, i), *v, &writer, &seq));
      EXPECT_EQ(writer, w);
      EXPECT_EQ(seq, uint64_t{(kRounds - 1) * kKeysPerWriter + i + 1});
    }
  }
}

}  // namespace
}  // namespace darray::kvs
