// Continuous sampling profiler: where the cycles go, to complement the
// latency planes (histograms answer "which op is slow", journeys "which
// stage"; this answers "which function").
//
// Two modes sharing one signal handler:
//  - cpu:  setitimer(ITIMER_PROF) at `hz` — the kernel delivers SIGPROF to a
//    thread in proportion to the CPU it burns, so busy threads dominate the
//    sample population and blocked threads cost nothing;
//  - wall: a ticker thread pthread_kill()s every registered thread at `hz`,
//    so time spent blocked (locks, parks, syscalls) is sampled too.
//
// The handler is async-signal-safe by construction: it reads the thread's
// pre-registered entry (one thread_local load), walks the frame-pointer
// chain with stack-bounds checks (no unwinder, no malloc, no locks), and
// appends {phase, op, pcs[]} to the thread's pre-allocated lock-free sample
// ring — the same single-writer wrapping discipline as TraceRing. Threads
// that never called register_current_thread have no ring; their signals are
// counted (profile.unattributed) and dropped rather than risking allocation
// in the handler.
//
// Symbolization is deliberately not done at sample time: collection stores
// raw PCs. dump_profile() writes raw PCs plus a copy of /proc/self/maps and
// a dladdr-resolved symbol table (computed at dump time, outside any signal
// context); `darray-trace --profile` turns the dump
// into top-N tables, flamegraph-collapsed folded stacks, and Perfetto
// sampling tracks without touching the live process.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/thread_registry.hpp"

namespace darray::obs {

// Keeps a function's frame out of its (sole) caller so the sampler's
// frame-pointer walk can attribute cycles to it by name. Applied to the
// long-lived loop bodies (tx/rx drain, dispatcher worker, runtime loop) that
// -O3 would otherwise inline into an anonymous std::thread lambda.
#define DARRAY_PROFILE_ANCHOR __attribute__((noinline))

enum class ProfileMode : uint8_t { kCpu = 0, kWall };

// Duty-cycle phase a sample lands in, maintained as thread-local context by
// the instrumented loops (DutyCycle park brackets set busy/idle; the serve
// dispatcher sets the op while executing a request).
enum class ProfPhase : uint8_t { kUnknown = 0, kBusy, kIdle, kMaxPhase };

const char* prof_phase_name(ProfPhase p);

inline constexpr uint8_t kProfNoOp = 0xff;  // "op" tag when no op is running

namespace detail {
struct ProfCtx {
  uint8_t phase = static_cast<uint8_t>(ProfPhase::kUnknown);
  uint8_t op = kProfNoOp;  // OpKind value while one is executing
};
extern constinit thread_local ProfCtx t_prof_ctx;
}  // namespace detail

// Hot-path context setters: one thread_local byte store each. The signal
// handler reads the same bytes; plain (non-atomic) accesses are fine because
// reader and writer are the same thread.
inline void set_prof_phase(ProfPhase p) {
  detail::t_prof_ctx.phase = static_cast<uint8_t>(p);
}
inline void set_prof_op(uint8_t op_kind) { detail::t_prof_ctx.op = op_kind; }

// RAII op tag for request-execution scopes.
struct ProfOpScope {
  explicit ProfOpScope(uint8_t op_kind) { set_prof_op(op_kind); }
  ~ProfOpScope() { set_prof_op(kProfNoOp); }
};

// --- sample ring -------------------------------------------------------------

// Single-writer wrapping ring of call-stack samples. The writer is a signal
// handler running on the owning thread; slots are relaxed atomic words so a
// concurrent reader can observe a torn sample but never UB (TraceRing rules:
// exact collection requires the profiler to be stopped).
class ProfileRing {
 public:
  static constexpr uint32_t kMaxFramesHard = 64;

  ProfileRing(size_t min_samples, uint32_t max_frames);

  // Signal-handler path: no allocation, no locks. `n` is clamped to the
  // ring's frame budget by the caller (capture writes at most max_frames()).
  void push(uint8_t phase, uint8_t op, const uintptr_t* pcs, uint32_t n);

  uint64_t pushed() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    const uint64_t h = pushed();
    return h > cap_ ? h - cap_ : 0;
  }
  size_t capacity() const { return cap_; }
  uint32_t max_frames() const { return max_frames_; }

  struct Sample {
    uint8_t phase = 0;
    uint8_t op = kProfNoOp;
    std::vector<uintptr_t> pcs;  // leaf first
  };
  // Retained samples, oldest first. Exact only while the writer is quiescent.
  std::vector<Sample> collect() const;
  void reset() { head_.store(0, std::memory_order_release); }

 private:
  size_t cap_;           // power of two
  uint32_t max_frames_;  // slot = 1 header word + max_frames_ PC words
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  std::atomic<uint64_t> head_{0};
};

// --- lifecycle ---------------------------------------------------------------

struct ProfilerOptions {
  ProfileMode mode = ProfileMode::kCpu;
  uint32_t hz = 97;           // off the 100 Hz beat of timer ticks
  uint32_t max_frames = 32;   // per-sample backtrace depth cap
  uint32_t ring_samples = 4096;  // per-thread ring capacity
};

// Installs the SIGPROF handler, (re)sizes missing per-thread rings, clears
// previous samples, and arms the timer (cpu) or starts the ticker (wall).
// False — with the reason logged — when a session is already running or the
// options are unusable. One session at a time, process-wide.
bool profiler_start(const ProfilerOptions& opts);

// Disarms the timer / joins the ticker and restores the previous SIGPROF
// disposition. Collected samples stay in the rings for collection/dump.
void profiler_stop();

bool profiler_running();

struct ProfileTotals {
  uint64_t samples = 0;       // backtraces recorded into rings
  uint64_t dropped = 0;       // overwritten by ring wraparound
  uint64_t signals = 0;       // SIGPROF deliveries observed
  uint64_t unattributed = 0;  // signals on threads with no registered ring
  uint64_t rings = 0;         // per-thread sample rings in existence
};
ProfileTotals profile_totals();

// Clears every ring and the signal counters. Quiescent use only.
void reset_profile();

// --- collection & in-process rendering --------------------------------------

// One aggregated cell: identical {thread, phase, op, stack} samples folded.
struct ProfileStack {
  const ThreadEntry* thread = nullptr;
  uint8_t phase = 0;
  uint8_t op = kProfNoOp;
  std::vector<uintptr_t> pcs;  // leaf first
  uint64_t count = 0;
};
std::vector<ProfileStack> collect_profile();

// dladdr-based best-effort symbolization (demangled; "module+0xoff" when the
// PC has no dynamic symbol; "0x..." when dladdr knows nothing). Not
// signal-safe — dump/report paths only.
std::string symbolize_pc(uintptr_t pc);

// Flamegraph-collapsed folded stacks, one line per aggregated cell:
//   <thread>;(<phase>[:op]);<root>;...;<leaf> <count>
// Frames are symbolized in-process and sanitized (spaces stripped, ';'
// replaced) so downstream flamegraph tooling parses them unambiguously.
std::string profiler_collapsed();

// Offline-symbolizable dump (text, "darray_profile v1"): totals, the thread
// name table, phase names, a copy of /proc/self/maps, a dladdr symbol table
// for every distinct PC, and the aggregated raw-PC stacks. Returns false on
// I/O failure.
bool dump_profile(const char* path);

// Hook for the thread registry: returns a ring for a newly registered thread
// when a profiler session is active or has ever been configured, else null
// (the ring is then created by the next profiler_start()).
ProfileRing* profiler_make_ring_if_configured();

}  // namespace darray::obs
