// Busy/idle duty-cycle sampling for the long-lived service threads (runtime
// engine loop, comm-layer progress thread). The owning thread brackets every
// blocking park with park_begin()/park_end(); everything else counts as busy.
// Under full load the thread never parks, so the instrumented path costs
// nothing; per park the cost is two clock reads and a few atomic stores —
// noise next to a futex wait or sleep.
//
// Single-writer (the owning thread); any thread may sample() concurrently.
// A park in progress counts as idle up to the sample, so a mostly parked
// thread reads idle inside every stats window, not only in the one where its
// park ends. Samples never run backwards.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/clock.hpp"
#include "obs/profiler.hpp"  // set_prof_phase: samples tag busy vs idle

namespace darray::obs {

struct DutyStats {
  uint64_t busy_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t parks = 0;

  DutyStats& operator+=(const DutyStats& o) {
    busy_ns += o.busy_ns;
    idle_ns += o.idle_ns;
    parks += o.parks;
    return *this;
  }
  double busy_fraction() const {
    const uint64_t total = busy_ns + idle_ns;
    return total ? static_cast<double>(busy_ns) / static_cast<double>(total) : 0.0;
  }
};

class DutyCycle {
 public:
  // Owning thread, at loop entry / exit. The park brackets double as the
  // profiler's phase context: a sample taken between park_begin and park_end
  // is tagged idle, everything else on a duty-cycled thread is busy.
  void on_start() {
    start_ns_.store(now_ns(), std::memory_order_relaxed);
    set_prof_phase(ProfPhase::kBusy);
  }
  void on_stop() { stop_ns_.store(now_ns(), std::memory_order_relaxed); }

  // Owning thread, around each blocking wait.
  uint64_t park_begin() {
    set_prof_phase(ProfPhase::kIdle);
    const uint64_t t0 = now_ns();
    park_ns_.store(t0, std::memory_order_release);
    return t0;
  }
  void park_end(uint64_t t0) {
    set_prof_phase(ProfPhase::kBusy);
    // Close the park before booking it, so a sampler that sees the booked
    // idle also sees the park closed (see sample()).
    park_ns_.store(0, std::memory_order_release);
    idle_ns_.fetch_add(now_ns() - t0, std::memory_order_release);
    parks_.fetch_add(1, std::memory_order_relaxed);
  }

  // Any thread. busy = wall time since start minus accumulated idle.
  DutyStats sample() const {
    DutyStats s;
    const uint64_t start = start_ns_.load(std::memory_order_relaxed);
    if (start == 0) return s;  // thread never ran
    const uint64_t stop = stop_ns_.load(std::memory_order_relaxed);
    const uint64_t end = stop != 0 ? stop : now_ns();
    const uint64_t wall = end > start ? end - start : 0;
    // Booked idle plus the open park, read as one pair: retry when a park
    // opened or closed between the two loads.
    uint64_t open = 0, idle = 0;
    do {
      open = park_ns_.load(std::memory_order_acquire);
      idle = idle_ns_.load(std::memory_order_acquire);
    } while (open != park_ns_.load(std::memory_order_acquire));
    if (open != 0 && end > open) idle += end - open;
    // The owner's clock read that books a park can precede this sample's, so
    // clamp to the largest idle reported so far.
    uint64_t prev = reported_idle_ns_.load(std::memory_order_relaxed);
    while (prev < idle &&
           !reported_idle_ns_.compare_exchange_weak(prev, idle, std::memory_order_relaxed)) {
    }
    s.idle_ns = idle > prev ? idle : prev;
    s.busy_ns = wall > s.idle_ns ? wall - s.idle_ns : 0;
    s.parks = parks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> start_ns_{0};
  std::atomic<uint64_t> stop_ns_{0};
  std::atomic<uint64_t> idle_ns_{0};
  std::atomic<uint64_t> park_ns_{0};  // start of the open park; 0 when none
  std::atomic<uint64_t> parks_{0};
  mutable std::atomic<uint64_t> reported_idle_ns_{0};
};

}  // namespace darray::obs
