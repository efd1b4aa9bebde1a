// Allocation retry (Engine::watch_lines): a miss that finds its node's cache
// region full of pinned lines parks in the engine's retry list, and asks each
// pinned line to ring the engine on its last release. The unpin that frees a
// line rings, so the retry runs again without anyone polling it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "core/darray.hpp"
#include "tests/test_util.hpp"

namespace darray {
namespace {

using testing::small_cfg;

// Waits (bounded) for `flag`; a miss stuck for 10 s is a hang. The stuck
// threads cannot be joined, so the process exits with a failure instead.
void await_or_die(const std::atomic<bool>& flag, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "%s did not happen within 10 s\n", what);
      std::fflush(stderr);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Thread A pins one remote chunk per line of node 0's region; thread B then
// reads one more remote chunk, which has no line to land in. `while_waiting`
// runs once B has parked on the failed allocation (~50 ms); then A unpins one
// chunk, and B must get the right value.
void get_waits_for_unpin(const std::function<void(rt::Cluster&)>& while_waiting = {}) {
  constexpr uint32_t kLines = 4;   // cachelines per region
  constexpr uint32_t kChunk = 16;  // elements per chunk
  rt::ClusterConfig cfg = small_cfg(2, kChunk, kLines);
  cfg.prefetch_chunks = 0;  // only demand misses take lines
  rt::Cluster cluster(cfg);
  // Node 1 homes the upper half of the chunks.
  const uint64_t n_chunks = 4 * (kLines + 1);
  auto a = DArray<uint64_t>::create(cluster, kChunk * n_chunks);
  std::thread init([&] {
    bind_thread(cluster, 1);
    for (uint64_t i = a.local_begin(1); i < a.local_end(1); ++i) a.set(i, i * 3);
  });
  init.join();
  std::vector<uint64_t> first;  // first element of each remote chunk
  for (uint64_t c = a.local_begin(1) / kChunk; first.size() < kLines + 1; ++c)
    first.push_back(c * kChunk);
  const uint64_t target = first[kLines] + 5;

  std::atomic<bool> pinned{false}, unpin_one{false}, b_done{false};
  std::thread holder([&] {
    bind_thread(cluster, 0);
    for (uint32_t i = 0; i < kLines; ++i) EXPECT_TRUE(a.pin(first[i], PinMode::kRead));
    pinned.store(true);
    await_or_die(unpin_one, "the test's unpin signal");
    a.unpin(first[0]);
    await_or_die(b_done, "the get behind a full cache");
    for (uint32_t i = 1; i < kLines; ++i) a.unpin(first[i]);
  });
  await_or_die(pinned, "pinning a line per cacheline");
  const uint64_t failures_before = cluster.node(0).cache_stats().alloc_failures;

  uint64_t got = 0;
  std::thread reader([&] {
    bind_thread(cluster, 0);
    got = a.get(target);
    b_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(b_done.load()) << "the get found a line while every line was pinned";
  EXPECT_GT(cluster.node(0).cache_stats().alloc_failures, failures_before)
      << "the get did not park on a failed allocation";
  if (while_waiting) while_waiting(cluster);
  unpin_one.store(true);
  await_or_die(b_done, "the get behind a full cache");
  reader.join();
  holder.join();
  EXPECT_EQ(got, target * 3);
}

TEST(AllocRetry, GetWaitsForUnpinOneShard) { get_waits_for_unpin(); }

// While B waits, nothing polls its retry: node 0's progress thread parks, and
// over 100 ms runs a handful of receive iterations where a loop that polled
// the retry would run one per yield.
TEST(AllocRetry, ProgressThreadParksWhileGetWaits) {
  get_waits_for_unpin([](rt::Cluster& cluster) {
    const auto passes = [&cluster] {
      return cluster.node(0).comm().rx_pass_stats().progress_passes;
    };
    const uint64_t before = passes();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_LT(passes() - before, 10u) << "the progress thread polled the waiting retry";
  });
}

}  // namespace
}  // namespace darray
