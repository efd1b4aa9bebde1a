#include "obs/inflight.hpp"

#include <memory>
#include <mutex>
#include <vector>

#include "common/spinlock.hpp"

namespace darray::obs {

namespace {

struct InflightSlot {
  std::atomic<uint64_t> corr{0};      // 0 = no op in flight
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> meta{0};      // kind << 48 | node << 32
  std::atomic<uint64_t> index{0};
  std::atomic<uint64_t> reported{0};  // watchdog-private: last corr reported
};

// Leaked like the trace-ring registry: a scan after the owning thread exited
// reads valid (idle) storage.
struct SlotRegistry {
  SpinLock mu;
  std::vector<std::unique_ptr<InflightSlot>> slots;
};

SlotRegistry& registry() {
  static SlotRegistry* r = new SlotRegistry;
  return *r;
}

#if DARRAY_TRACING
InflightSlot& thread_slot() {
  thread_local InflightSlot* slot = [] {
    auto owned = std::make_unique<InflightSlot>();
    InflightSlot* p = owned.get();
    SlotRegistry& reg = registry();
    std::lock_guard lk(reg.mu);
    reg.slots.push_back(std::move(owned));
    return p;
  }();
  return *slot;
}
#endif

}  // namespace

#if DARRAY_TRACING

bool inflight_begin(uint64_t corr, OpKind kind, uint16_t node, uint64_t index,
                    uint64_t start_ns) {
  InflightSlot& s = thread_slot();
  if (s.corr.load(std::memory_order_relaxed) != 0) return false;  // nested span
  s.start_ns.store(start_ns, std::memory_order_relaxed);
  s.meta.store((static_cast<uint64_t>(kind) << 48) | (static_cast<uint64_t>(node) << 32),
               std::memory_order_relaxed);
  s.index.store(index, std::memory_order_relaxed);
  s.corr.store(corr, std::memory_order_release);
  return true;
}

void inflight_end() { thread_slot().corr.store(0, std::memory_order_release); }

#endif  // DARRAY_TRACING

size_t watchdog_scan(uint64_t now_ns, uint64_t deadline_ns,
                     const std::function<void(const SlowOp&)>& fn) {
  SlotRegistry& reg = registry();
  std::lock_guard lk(reg.mu);
  size_t reports = 0;
  for (const auto& s : reg.slots) {
    const uint64_t corr = s->corr.load(std::memory_order_acquire);
    if (corr == 0) continue;
    const uint64_t start = s->start_ns.load(std::memory_order_relaxed);
    const uint64_t meta = s->meta.load(std::memory_order_relaxed);
    const uint64_t index = s->index.load(std::memory_order_relaxed);
    // The op may have ended (and a new one begun) between the corr load and
    // the field loads; requiring the same corr afterwards rejects the torn
    // combination.
    if (s->corr.load(std::memory_order_acquire) != corr) continue;
    // An op that began after the caller sampled now_ns is not late; without
    // this check the unsigned age wraps and reports it.
    if (start > now_ns || now_ns - start < deadline_ns) continue;
    if (s->reported.load(std::memory_order_relaxed) == corr) continue;
    s->reported.store(corr, std::memory_order_relaxed);
    SlowOp op;
    op.corr = corr;
    op.start_ns = start;
    op.index = index;
    op.kind = static_cast<OpKind>((meta >> 48) & 0xff);
    op.node = static_cast<uint16_t>(meta >> 32);
    ++reports;
    if (fn) fn(op);
  }
  return reports;
}

}  // namespace darray::obs
