// Directory entry: the per-chunk, per-node state that the lock-free data
// access path (paper Fig. 4) and the runtime management path (Fig. 5/6) meet
// on. Application threads touch only the atomics; all state transitions are
// made by passes of the node's engine.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/mpsc_queue.hpp"
#include "runtime/types.hpp"

namespace darray::rt {

struct alignas(64) Dentry {
  std::atomic<DentryState> state{DentryState::kInvalid};
  std::atomic<bool> delay{false};    // Fig. 5 ①/④: holds off incoming accesses
  std::atomic<bool> watched{false};  // an allocation waits for this line (watch)
  std::atomic<uint32_t> refcnt{0};
  std::atomic<uint16_t> op_id{kNoOp};          // valid while state==kOperated
  std::atomic<std::byte*> data{nullptr};       // subarray chunk or cacheline
  std::atomic<std::byte*> combine{nullptr};    // remote Operated participants
  std::atomic<std::atomic<uint64_t>*> combine_bitmap{nullptr};
  bool is_home = false;             // immutable after array creation
  PendingBell* owner_bell = nullptr;  // asks for a pass of the node's engine

  // Per-target-state transition tallies (obs): written only by the engine's
  // passes (store of load+1, not an RMW — single-writer), read by the
  // stats plane from any thread. The initial home-side state set at array
  // creation is not a transition and is not counted.
  std::atomic<uint32_t> transitions[kNumDentryStates] = {};

  // --- application-thread side (Fig. 4) -------------------------------------

  // Fig. 4 lines 6-8: wait out the delay flag, then take a reference. The
  // caller must re-check `state` afterwards (time-of-check/time-of-use is
  // bridged by the reference).
  void acquire_ref() {
    for (;;) {
      if (delay.load(std::memory_order_acquire)) {
        spin_wait_until(delay, [](bool v) { return !v; });
      }
      refcnt.fetch_add(1, std::memory_order_seq_cst);
      // The runtime may have raised delay between our check and the
      // increment; back out so it is never forced to wait on late arrivals.
      // seq_cst pairs with begin_drain/drained (see there).
      if (!delay.load(std::memory_order_seq_cst)) return;
      release_ref();
    }
  }

  // Fig. 4 line 14. Asks for an engine pass iff the chunk is draining or
  // watched. The ring follows the clear, so a pass re-watches after it.
  void release_ref() {
    if (refcnt.fetch_sub(1, std::memory_order_seq_cst) != 1) return;
    if (!delay.load(std::memory_order_seq_cst) && !watched.load(std::memory_order_seq_cst))
      return;
    watched.store(false, std::memory_order_relaxed);
    refcnt.notify_all();
    if (owner_bell) owner_bell->ring();
  }

  // --- engine side (Fig. 5/6) ------------------------------------------------

  // Fig. 5 ①+②: block new accessors and install the target state. The caller
  // completes the drain once refcnt reaches zero (asynchronously — see
  // Engine::start_drain) and then calls finish_drain().
  //
  // begin_drain's delay store (and watch's) and drained()'s refcnt load pair
  // with release_ref's refcnt RMW and flag loads (a store→load, Dekker
  // shape): all are seq_cst, so either the runtime sees the reference gone or
  // the last releaser sees the flag raised and rings the owner.
  void begin_drain(DentryState target) {
    delay.store(true, std::memory_order_seq_cst);
    state.store(target, std::memory_order_release);
    count_transition(target);
  }

  bool drained() const { return refcnt.load(std::memory_order_seq_cst) == 0; }

  // An allocation waits for this referenced line to become evictable: ask
  // the last release to ring. Returns drained(): true if that release came
  // first, so the caller may evict now.
  bool watch() {
    watched.store(true, std::memory_order_seq_cst);
    return drained();
  }

  // Fig. 5 ④.
  void finish_drain() { publish_and_notify(delay, false); }

  // Fig. 6: permission promotion needs no synchronisation with user threads.
  void promote(DentryState target) {
    state.store(target, std::memory_order_release);
    count_transition(target);
  }

  void count_transition(DentryState target) {
    std::atomic<uint32_t>& c = transitions[static_cast<size_t>(target)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  uint32_t transition_count(DentryState target) const {
    return transitions[static_cast<size_t>(target)].load(std::memory_order_relaxed);
  }
};

// release_ref reads only the dentry's first cache line.
static_assert(offsetof(Dentry, owner_bell) + sizeof(PendingBell*) <= 64);

}  // namespace darray::rt
