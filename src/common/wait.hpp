// Hybrid spin/futex waiting.
//
// The whole cluster simulation is heavily oversubscribed (many nodes' worth of
// threads on few cores), so unbounded spinning would starve the thread that
// must make progress. Every wait here spins a short, bounded burst and then
// parks on the atomic via C++20 atomic::wait. That is not a bare futex:
// libstdc++ 12's atomic::wait first spins itself (__atomic_spin in
// bits/atomic_wait.h: 12 `pause`s, then 4 sched_yield calls) and only then
// sleeps in futex(FUTEX_WAIT). So a park that the value ends quickly costs
// yields, not a sleep; on a busy host that is a few sched_yield calls per
// remote miss. Producers publish with publish_and_notify.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace darray {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Spin budget before parking. Kept small: on an oversubscribed box the value
// we wait for is usually produced by a thread that needs our core.
inline constexpr int kSpinBudget = 128;

// Wait until pred(var.load(acquire)) is true. Pred is re-evaluated on wakeup.
template <typename T, typename Pred>
inline void spin_wait_until(const std::atomic<T>& var, Pred&& pred) {
  for (int i = 0; i < kSpinBudget; ++i) {
    if (pred(var.load(std::memory_order_acquire))) return;
    cpu_relax();
  }
  for (;;) {
    T v = var.load(std::memory_order_acquire);
    if (pred(v)) return;
    var.wait(v, std::memory_order_acquire);
  }
}

enum class Wake : uint8_t { kOne, kAll };

// Store `v` to `var` and wake the threads parked on it. The store is seq_cst
// on purpose: libstdc++'s notify skips the futex wake when a seq_cst load of
// its waiter count reads zero, and a release store may still sit in the store
// buffer when that load runs. The signaller could then skip the wake while a
// waiter that registered itself and re-read the old value parks for good.
template <typename T>
inline void publish_and_notify(std::atomic<T>& var, T v, Wake wake = Wake::kAll) {
  var.store(v, std::memory_order_seq_cst);
  if (wake == Wake::kOne)
    var.notify_one();
  else
    var.notify_all();
}

// One-shot completion flag an application thread parks on while the runtime
// services its slow-path request.
class Completion {
 public:
  // The waiter may return (and free a stack-owned Completion) as soon as it
  // sees the store, so the notify that follows can target a dead address.
  // That is benign: a futex wake reads no memory, and waits tolerate
  // spurious wakeups.
  void signal() { publish_and_notify(done_, uint32_t{1}, Wake::kOne); }

  void wait() const {
    spin_wait_until(done_, [](uint32_t v) { return v != 0; });
  }

  bool ready() const { return done_.load(std::memory_order_acquire) != 0; }

  void reset() { done_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint32_t> done_{0};
};

// Counts outstanding events; wait() returns when the count reaches zero.
class CountLatch {
 public:
  explicit CountLatch(uint32_t n = 0) : n_(n) {}

  void add(uint32_t k = 1) { n_.fetch_add(k, std::memory_order_relaxed); }

  void done(uint32_t k = 1) {
    if (n_.fetch_sub(k, std::memory_order_acq_rel) == k) n_.notify_all();
  }

  void wait() const {
    spin_wait_until(n_, [](uint32_t v) { return v == 0; });
  }

 private:
  std::atomic<uint32_t> n_;
};

}  // namespace darray
