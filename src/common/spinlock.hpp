// TTAS spinlock with futex fallback, for runtime-side (non-critical-path)
// serialisation. The paper deliberately uses plain locks between runtime
// threads (§4.1): only the application-thread access path is lock-free.
#pragma once

#include <atomic>

#include "common/wait.hpp"

namespace darray {

class SpinLock {
 public:
  void lock() {
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      // Bounded spin on the cached value, then park.
      spin_wait_until(locked_, [](bool v) { return !v; });
    }
  }

  bool try_lock() { return !locked_.exchange(true, std::memory_order_acquire); }

  void unlock() { publish_and_notify(locked_, false, Wake::kOne); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace darray
