// Typed tests: the DArray-backed KVS and the GAM-backed KVS must behave
// identically (the paper compares their performance, not semantics).
#include "kvs/kvs.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace darray::kvs
