// DutyCycle: busy/idle/park accounting across park-unpark cycles, the
// never-ran and stopped states, and concurrent sample() against the owning
// thread (single-writer contract) — the latter matters under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "obs/duty_cycle.hpp"

namespace darray::obs {
namespace {

TEST(DutyCycle, NeverStartedSamplesAllZero) {
  DutyCycle d;
  const DutyStats s = d.sample();
  EXPECT_EQ(s.busy_ns, 0u);
  EXPECT_EQ(s.idle_ns, 0u);
  EXPECT_EQ(s.parks, 0u);
  EXPECT_EQ(s.busy_fraction(), 0.0);
}

TEST(DutyCycle, ParkUnparkCyclesAccumulateIdleAndParks) {
  DutyCycle d;
  d.on_start();
  for (int i = 0; i < 3; ++i) {
    const uint64_t t0 = d.park_begin();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    d.park_end(t0);
  }
  d.on_stop();
  const DutyStats s = d.sample();
  EXPECT_EQ(s.parks, 3u);
  EXPECT_GE(s.idle_ns, 3u * 1'000'000u);  // ≥ 3 × ~2 ms parked (timer slack)
  // busy = wall - idle: the loop body between parks is cheap but nonzero,
  // and never exceeds the wall clock.
  EXPECT_LE(s.busy_ns + s.idle_ns, now_ns());
  EXPECT_GT(s.busy_fraction(), 0.0);
  EXPECT_LT(s.busy_fraction(), 1.0);
}

TEST(DutyCycle, StoppedCycleIsFrozen) {
  DutyCycle d;
  d.on_start();
  const uint64_t t0 = d.park_begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  d.park_end(t0);
  d.on_stop();
  const DutyStats a = d.sample();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const DutyStats b = d.sample();  // wall stopped advancing at on_stop()
  EXPECT_EQ(a.busy_ns, b.busy_ns);
  EXPECT_EQ(a.idle_ns, b.idle_ns);
  EXPECT_EQ(a.parks, b.parks);
}

TEST(DutyCycle, BusyOnlyThreadReportsFullDuty) {
  DutyCycle d;
  d.on_start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  d.on_stop();
  const DutyStats s = d.sample();
  EXPECT_EQ(s.parks, 0u);
  EXPECT_EQ(s.idle_ns, 0u);
  EXPECT_GT(s.busy_ns, 0u);
  EXPECT_EQ(s.busy_fraction(), 1.0);
}

// A park still in progress counts as idle up to the sample, so a mostly
// parked thread reads idle in every stats window, not only when it wakes.
TEST(DutyCycle, SampleCountsParkInProgress) {
  DutyCycle d;
  std::atomic<bool> parked{false}, release{false};
  std::thread owner([&] {
    d.on_start();
    const uint64_t t0 = d.park_begin();
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    d.park_end(t0);
    d.on_stop();
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const DutyStats s = d.sample();
  release.store(true, std::memory_order_release);
  owner.join();
  EXPECT_GE(s.idle_ns, 40'000'000u);
  EXPECT_EQ(s.parks, 0u);  // the park is counted once it ends
  const DutyStats fin = d.sample();
  EXPECT_GE(fin.idle_ns, s.idle_ns);
  EXPECT_EQ(fin.parks, 1u);
}

// The single-writer / many-sampler contract: one thread parks and unparks in
// a tight loop while samplers hammer sample(). Checked properties: parks
// never runs backwards across samples, idle never exceeds the wall clock by
// more than one in-progress park, and (under TSan) no data race is flagged.
TEST(DutyCycle, ConcurrentSampleDuringParkCycles) {
  DutyCycle d;
  std::atomic<bool> stop{false};

  std::thread owner([&] {
    d.on_start();
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t t0 = d.park_begin();
      std::this_thread::yield();
      d.park_end(t0);
    }
    d.on_stop();
  });

  std::thread samplers[2];
  for (auto& t : samplers) {
    t = std::thread([&] {
      uint64_t last_parks = 0;
      uint64_t last_idle = 0;
      for (int i = 0; i < 5000; ++i) {
        const DutyStats s = d.sample();
        EXPECT_GE(s.parks, last_parks);
        EXPECT_GE(s.idle_ns, last_idle);
        last_parks = s.parks;
        last_idle = s.idle_ns;
      }
    });
  }
  for (auto& t : samplers) t.join();
  // The samplers can finish before the owner is first scheduled; let it
  // complete one park cycle so the final count checks a park, not a race.
  while (d.sample().parks == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  owner.join();

  const DutyStats fin = d.sample();
  EXPECT_GT(fin.parks, 0u);
  EXPECT_LE(fin.busy_ns + fin.idle_ns, now_ns());
}

}  // namespace
}  // namespace darray::obs
