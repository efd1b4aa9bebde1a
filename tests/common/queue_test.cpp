#include "common/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

namespace darray {
namespace {

TEST(MpscQueue, EmptyPopFails) {
  MpscQueue<int> q;
  int v = 0;
  EXPECT_FALSE(q.pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, FifoSingleThread) {
  MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_FALSE(q.empty());
  int v;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
}

TEST(MpscQueue, MoveOnlyValues) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(7));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 7);
}

TEST(MpscQueue, MultiProducerTotalSum) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Doorbell bell;
  MpscQueue<int> q;

  // The queue+doorbell handshake every consumer relies on: push, then ring.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &bell, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(p * kPerProducer + i);
        bell.ring();
      }
    });
  }

  long long sum = 0;
  int received = 0;
  while (received < kProducers * kPerProducer) {
    const uint32_t snap = bell.snapshot();
    int v;
    bool got = false;
    while (q.pop(v)) {
      sum += v;
      received++;
      got = true;
    }
    if (!got && received < kProducers * kPerProducer) bell.wait_change(snap);
  }
  for (auto& t : producers) t.join();

  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(MpscQueue, PerProducerOrderPreserved) {
  constexpr int kPerProducer = 5000;
  MpscQueue<std::pair<int, int>> q;
  std::thread p1([&] {
    for (int i = 0; i < kPerProducer; ++i) q.push({1, i});
  });
  std::thread p2([&] {
    for (int i = 0; i < kPerProducer; ++i) q.push({2, i});
  });

  int next1 = 0, next2 = 0, received = 0;
  while (received < 2 * kPerProducer) {
    std::pair<int, int> v;
    if (!q.pop(v)) {
      std::this_thread::yield();
      continue;
    }
    received++;
    if (v.first == 1) {
      EXPECT_EQ(v.second, next1++);
    } else {
      EXPECT_EQ(v.second, next2++);
    }
  }
  p1.join();
  p2.join();
}

TEST(Doorbell, WaitReturnsAfterRing) {
  Doorbell bell;
  const uint32_t snap = bell.snapshot();
  std::thread t([&] { bell.ring(); });
  bell.wait_change(snap);  // must not hang
  t.join();
  EXPECT_NE(bell.snapshot(), snap);
}

}  // namespace
}  // namespace darray
