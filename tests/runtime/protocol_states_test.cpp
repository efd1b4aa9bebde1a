// White-box validation of Table 1 / Fig. 9: after each access pattern, the
// per-node dentry permissions must match the protocol state the directory is
// supposed to be in. (Dentry states are the observable projection of the
// global state: Unshared → home kWrite/others kInvalid, Shared → readable
// everywhere, Dirty → owner kWrite/home kInvalid, Operated → kOperated.)
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.hpp"
#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray::rt {
namespace {

using darray::testing::small_cfg;

void add_u64(uint64_t& a, uint64_t v) { a += v; }

class ProtocolStates : public ::testing::Test {
 protected:
  ProtocolStates() : cluster(small_cfg(3)) {
    arr = darray::DArray<uint64_t>::create(cluster, 192);
    add = arr.register_op(&add_u64, 0);
  }

  DentryState state_at(NodeId n, ChunkId c = 0) {
    return cluster.node(n).array_state(arr.meta().id)->dentries[c].state.load(
        std::memory_order_acquire);
  }

  // Transitions triggered by our op may settle asynchronously on other nodes
  // (invalidations, flushes): wait for the expected state with a deadline.
  ::testing::AssertionResult eventually(NodeId n, DentryState want, ChunkId c = 0) {
    const uint64_t deadline = now_ns() + 5'000'000'000ull;
    while (now_ns() < deadline) {
      if (state_at(n, c) == want) return ::testing::AssertionSuccess();
      std::this_thread::yield();
    }
    return ::testing::AssertionFailure()
           << "node " << n << " state " << static_cast<int>(state_at(n, c)) << " != want "
           << static_cast<int>(want);
  }

  void on_node(NodeId n, const std::function<void()>& fn) {
    std::thread t([&, n] {
      darray::bind_thread(cluster, n);
      fn();
    });
    t.join();
  }

  rt::Cluster cluster;
  darray::DArray<uint64_t> arr;
  darray::OpHandle<uint64_t> add;
};

TEST_F(ProtocolStates, InitialUnshared) {
  // Chunk 0 is homed at node 0: home holds full permission, others nothing.
  EXPECT_EQ(state_at(0), DentryState::kWrite);
  EXPECT_EQ(state_at(1), DentryState::kInvalid);
  EXPECT_EQ(state_at(2), DentryState::kInvalid);
}

TEST_F(ProtocolStates, RemoteReadMakesShared) {
  on_node(1, [&] { (void)arr.get(0); });
  EXPECT_TRUE(eventually(0, DentryState::kRead));   // home degraded W → R
  EXPECT_TRUE(eventually(1, DentryState::kRead));   // requester fills as reader
  EXPECT_EQ(state_at(2), DentryState::kInvalid);
  on_node(2, [&] { (void)arr.get(0); });
  EXPECT_TRUE(eventually(2, DentryState::kRead));   // more sharers join
  EXPECT_TRUE(eventually(1, DentryState::kRead));   // existing sharers keep R
}

TEST_F(ProtocolStates, RemoteWriteMakesDirty) {
  on_node(1, [&] { arr.set(0, 1); });
  EXPECT_TRUE(eventually(1, DentryState::kWrite));    // exclusive owner
  EXPECT_TRUE(eventually(0, DentryState::kInvalid));  // home loses permission
  EXPECT_EQ(state_at(2), DentryState::kInvalid);
}

TEST_F(ProtocolStates, WriteInvalidatesSharers) {
  on_node(1, [&] { (void)arr.get(0); });
  on_node(2, [&] { (void)arr.get(0); });
  on_node(1, [&] { arr.set(0, 5); });  // upgrade: node 2 and home must drop
  EXPECT_TRUE(eventually(1, DentryState::kWrite));
  EXPECT_TRUE(eventually(0, DentryState::kInvalid));
  EXPECT_TRUE(eventually(2, DentryState::kInvalid));
}

TEST_F(ProtocolStates, OperateMakesAllParticipantsOperated) {
  on_node(1, [&] { arr.apply(0, add, 1); });
  EXPECT_TRUE(eventually(1, DentryState::kOperated));
  EXPECT_TRUE(eventually(0, DentryState::kOperated));  // home participates too
  on_node(2, [&] { arr.apply(0, add, 1); });
  EXPECT_TRUE(eventually(2, DentryState::kOperated));
  EXPECT_TRUE(eventually(1, DentryState::kOperated));  // non-exclusive: 1 keeps it
}

TEST_F(ProtocolStates, ReadFlushesOperatedToUnshared) {
  on_node(1, [&] { arr.apply(0, add, 7); });
  on_node(2, [&] { arr.apply(0, add, 8); });
  // Fig. 9: Operated → Unshared on a local read at home; afterwards a fresh
  // Shared forms for the reader.
  on_node(0, [&] { EXPECT_EQ(arr.get(0), 15u); });
  EXPECT_TRUE(eventually(0, DentryState::kWrite));     // back to Unshared at home
  EXPECT_TRUE(eventually(1, DentryState::kInvalid));   // participants dropped
  EXPECT_TRUE(eventually(2, DentryState::kInvalid));
}

TEST_F(ProtocolStates, DirtyReadFetchMakesShared) {
  on_node(1, [&] { arr.set(0, 9); });                 // Dirty at node 1
  on_node(2, [&] { EXPECT_EQ(arr.get(0), 9u); });     // remote read fetches
  EXPECT_TRUE(eventually(0, DentryState::kRead));     // home regains R
  EXPECT_TRUE(eventually(1, DentryState::kRead));     // old owner downgraded
  EXPECT_TRUE(eventually(2, DentryState::kRead));
}

TEST_F(ProtocolStates, DirtyToOperatedWritesBackFirst) {
  on_node(1, [&] { arr.set(0, 100); });
  on_node(2, [&] { arr.apply(0, add, 1); });  // forces 1's dirty data home
  EXPECT_TRUE(eventually(2, DentryState::kOperated));
  EXPECT_TRUE(eventually(0, DentryState::kOperated));
  EXPECT_TRUE(eventually(1, DentryState::kInvalid));  // old owner invalidated
  on_node(0, [&] { EXPECT_EQ(arr.get(0), 101u); });   // 100 written back + 1 op
}

TEST_F(ProtocolStates, OperatorSwitchRequiresFlush) {
  const auto mx = arr.register_op(
      +[](uint64_t& a, uint64_t v) {
        if (v > a) a = v;
      },
      0);
  on_node(1, [&] { arr.apply(0, add, 5); });
  on_node(2, [&] { arr.apply(0, mx, 3); });  // different op: flush round first
  EXPECT_TRUE(eventually(2, DentryState::kOperated));
  EXPECT_TRUE(eventually(1, DentryState::kInvalid));  // add participant flushed
  on_node(0, [&] { EXPECT_EQ(arr.get(0), 5u); });     // max(5, 3)
}

TEST_F(ProtocolStates, HomeWriteRecallsDirty) {
  on_node(1, [&] { arr.set(0, 3); });
  on_node(0, [&] { arr.set(0, 4); });  // local write: fetch-invalidate owner
  EXPECT_TRUE(eventually(0, DentryState::kWrite));
  EXPECT_TRUE(eventually(1, DentryState::kInvalid));
  on_node(2, [&] { EXPECT_EQ(arr.get(0), 4u); });
}

}  // namespace
}  // namespace darray::rt
