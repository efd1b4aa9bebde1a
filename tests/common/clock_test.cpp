#include "common/clock.hpp"

#include <gtest/gtest.h>

namespace darray {
namespace {

TEST(NowNs, Monotonic) {
  const uint64_t a = now_ns();
  const uint64_t b = now_ns();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace darray
