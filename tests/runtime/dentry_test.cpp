// The dentry's reference/delay machinery in isolation (paper Fig. 4/5/6).
#include "runtime/dentry.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace darray::rt {
namespace {

TEST(Dentry, InitialState) {
  Dentry d;
  EXPECT_EQ(d.state.load(), DentryState::kInvalid);
  EXPECT_FALSE(d.delay.load());
  EXPECT_TRUE(d.drained());
}

TEST(Dentry, AcquireReleaseBalance) {
  Dentry d;
  d.acquire_ref();
  d.acquire_ref();
  EXPECT_FALSE(d.drained());
  d.release_ref();
  EXPECT_FALSE(d.drained());
  d.release_ref();
  EXPECT_TRUE(d.drained());
}

TEST(Dentry, BeginDrainInstallsTargetAndBlocks) {
  Dentry d;
  d.promote(DentryState::kRead);
  d.begin_drain(DentryState::kInvalid);
  EXPECT_TRUE(d.delay.load());
  EXPECT_EQ(d.state.load(), DentryState::kInvalid);  // Fig. 5 ②: state first
  d.finish_drain();
  EXPECT_FALSE(d.delay.load());
}

TEST(Dentry, AcquireWaitsOutDelay) {
  Dentry d;
  d.begin_drain(DentryState::kRead);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    d.acquire_ref();  // must block until finish_drain
    acquired.store(true);
    d.release_ref();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load()) << "acquire_ref slipped past the delay flag";
  d.finish_drain();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Dentry, ReleaseWakesDrainingRuntime) {
  Dentry d;
  Doorbell bell;
  PendingBell owner(&bell);
  d.owner_bell = &owner;
  d.acquire_ref();
  d.begin_drain(DentryState::kInvalid);  // runtime wants the chunk
  const uint32_t snap = bell.snapshot();
  std::thread t([&] { d.release_ref(); });  // last release must ring
  bell.wait_change(snap);                   // must not hang
  t.join();
  EXPECT_TRUE(d.drained());
  EXPECT_TRUE(owner.take()) << "the ring must ask for the owning shard's pass";
}

TEST(Dentry, ReleaseWithoutDelayDoesNotRing) {
  Dentry d;
  Doorbell bell;
  PendingBell owner(&bell);
  d.owner_bell = &owner;
  const uint32_t snap = bell.snapshot();
  d.acquire_ref();
  d.release_ref();
  EXPECT_EQ(bell.snapshot(), snap) << "fast path must not wake the runtime";
  EXPECT_FALSE(owner.take());
}

TEST(Dentry, PromoteSkipsDrain) {
  Dentry d;
  d.promote(DentryState::kRead);
  d.acquire_ref();  // an active reader
  d.promote(DentryState::kWrite);  // Fig. 6: no synchronisation needed
  EXPECT_EQ(d.state.load(), DentryState::kWrite);
  EXPECT_FALSE(d.delay.load());
  d.release_ref();
}

}  // namespace
}  // namespace darray::rt
