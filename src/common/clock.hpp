// Monotonic nanosecond clock shared by every layer. All simulated nodes live
// in one process and read this one clock, so timestamps taken on different
// "nodes" can be subtracted directly.
#pragma once

#include <chrono>
#include <cstdint>

namespace darray {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace darray
