// Reusable sense-reversing barrier with futex parking, used by benchmarks and
// the BSP (Gemini-style) graph engine to synchronise worker threads across
// simulated nodes.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "common/wait.hpp"

namespace darray {

class SenseBarrier {
 public:
  explicit SenseBarrier(uint32_t parties) : parties_(parties), remaining_(parties) {
    DARRAY_ASSERT(parties > 0);
  }

  void arrive_and_wait() {
    const uint32_t my_sense = sense_.load(std::memory_order_acquire);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.store(parties_, std::memory_order_relaxed);
      publish_and_notify(sense_, my_sense + 1);
    } else {
      spin_wait_until(sense_, [my_sense](uint32_t s) { return s != my_sense; });
    }
  }

 private:
  const uint32_t parties_;
  std::atomic<uint32_t> remaining_;
  std::atomic<uint32_t> sense_{0};
};

}  // namespace darray
