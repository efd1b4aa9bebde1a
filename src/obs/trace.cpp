#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <cstring>

#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "obs/thread_registry.hpp"

namespace darray::obs {

namespace {

const char* const kEvNames[] = {
    "op_begin", "op_end",      "miss",  "dir_req", "dir_resp", "combine_flush",
    "wr_post",  "wr_complete", "retry", "backoff", "fault",
};
static_assert(sizeof(kEvNames) / sizeof(kEvNames[0]) == static_cast<size_t>(Ev::kMaxEv));

const char* const kOpKindNames[] = {
    "get",   "set",   "apply",     "rlock",     "wlock",
    "unlock", "pin",  "unpin",     "get_range", "set_range",
    "dot",   "axpy",  "scale",     "norm2",     "gemv",
};
static_assert(sizeof(kOpKindNames) / sizeof(kOpKindNames[0]) ==
              static_cast<size_t>(OpKind::kMaxOpKind));

size_t round_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Packs ev/kind/node/a into one word so a slot is exactly 4 stores.
uint64_t pack_meta(const TraceEvent& e) {
  return (static_cast<uint64_t>(e.ev) << 56) | (static_cast<uint64_t>(e.kind) << 48) |
         (static_cast<uint64_t>(e.node) << 32) | e.a;
}

void unpack_meta(uint64_t m, TraceEvent& e) {
  e.ev = static_cast<Ev>(m >> 56);
  e.kind = static_cast<uint8_t>(m >> 48);
  e.node = static_cast<uint16_t>(m >> 32);
  e.a = static_cast<uint32_t>(m);
}

}  // namespace

const char* ev_name(Ev e) {
  return e < Ev::kMaxEv ? kEvNames[static_cast<size_t>(e)] : "?";
}

const char* op_kind_name(OpKind k) {
  return k < OpKind::kMaxOpKind ? kOpKindNames[static_cast<size_t>(k)] : "?";
}

TraceRing::TraceRing(size_t min_capacity)
    : cap_(round_pow2(min_capacity < 2 ? 2 : min_capacity)),
      words_(new std::atomic<uint64_t>[cap_ * 4]) {
  for (size_t i = 0; i < cap_ * 4; ++i) words_[i].store(0, std::memory_order_relaxed);
}

void TraceRing::set_name(const char* name) {
  std::strncpy(name_, name != nullptr ? name : "", sizeof(name_) - 1);
  name_[sizeof(name_) - 1] = '\0';
}

void TraceRing::push(const TraceEvent& e) {
  const uint64_t h = head_.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* w = &words_[(h & (cap_ - 1)) * 4];
  w[0].store(e.ts_ns, std::memory_order_relaxed);
  w[1].store(e.corr, std::memory_order_relaxed);
  w[2].store(pack_meta(e), std::memory_order_relaxed);
  w[3].store(e.b, std::memory_order_relaxed);
  head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::collect() const {
  const uint64_t h = head_.load(std::memory_order_acquire);
  const uint64_t n = h < cap_ ? h : cap_;
  std::vector<TraceEvent> out;
  out.reserve(n);
  for (uint64_t i = h - n; i < h; ++i) {
    const std::atomic<uint64_t>* w = &words_[(i & (cap_ - 1)) * 4];
    TraceEvent e;
    e.ts_ns = w[0].load(std::memory_order_relaxed);
    e.corr = w[1].load(std::memory_order_relaxed);
    unpack_meta(w[2].load(std::memory_order_relaxed), e);
    e.b = w[3].load(std::memory_order_relaxed);
    e.ring = id_;
    out.push_back(e);
  }
  return out;
}

// --- global ring registry ----------------------------------------------------
// Rings are owned here and never destroyed while the process lives, so a dump
// after the recording thread exited (the common case: join workers, then
// report) reads valid storage.

namespace {

struct RingRegistry {
  SpinLock mu;
  std::vector<std::unique_ptr<TraceRing>> rings;
};

RingRegistry& registry() {
  static RingRegistry* r = new RingRegistry;  // leak: outlive static dtor order
  return *r;
}

std::atomic<size_t> g_ring_cap_override{0};

size_t thread_ring_capacity() {
  const size_t o = g_ring_cap_override.load(std::memory_order_relaxed);
  if (o != 0) return o;
  static const size_t cap = [] {
    const char* e = std::getenv("DARRAY_TRACE_RING");
    const size_t v = e ? std::strtoull(e, nullptr, 10) : 0;
    return v ? v : size_t{16384};
  }();
  return cap;
}

std::atomic<uint64_t> g_thread_slots{0};

#if DARRAY_TRACING
TraceRing& thread_ring() {
  thread_local TraceRing* ring = [] {
    auto owned = std::make_unique<TraceRing>(thread_ring_capacity());
    TraceRing* p = owned.get();
    // Threads register (obs/thread_registry) at loop entry, before their
    // first traced event, so the name is normally already set here.
    p->set_name(current_thread_name());
    RingRegistry& reg = registry();
    std::lock_guard lk(reg.mu);
    p->set_id(static_cast<uint16_t>(reg.rings.size()));
    reg.rings.push_back(std::move(owned));
    return p;
  }();
  return *ring;
}
#endif

}  // namespace

#if DARRAY_TRACING

namespace detail {
std::atomic<bool> g_trace_on{false};
}

void set_tracing(bool on) { detail::g_trace_on.store(on, std::memory_order_relaxed); }

uint64_t new_corr_id() {
  // 22-bit thread slot | 42-bit sequence; sequence starts at 1 so id 0 always
  // means "no correlation".
  thread_local uint64_t base =
      (g_thread_slots.fetch_add(1, std::memory_order_relaxed) + 1) << 42;
  thread_local uint64_t seq = 0;
  return base | ++seq;
}

void record(Ev ev, uint64_t corr, uint8_t kind, uint16_t node, uint32_t a, uint64_t b) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.corr = corr;
  e.ev = ev;
  e.kind = kind;
  e.node = node;
  e.a = a;
  e.b = b;
  thread_ring().push(e);
}

#endif  // DARRAY_TRACING

void set_trace_ring_capacity(size_t events) {
  g_ring_cap_override.store(events, std::memory_order_relaxed);
}

TraceTotals trace_totals() {
  TraceTotals t;
  RingRegistry& reg = registry();
  std::lock_guard lk(reg.mu);
  t.rings = reg.rings.size();
  for (const auto& r : reg.rings) {
    const uint64_t pushed = r->pushed();
    t.recorded += pushed;
    t.dropped += r->dropped();
    t.retained += pushed - r->dropped();
  }
  return t;
}

std::vector<TraceRingInfo> trace_ring_infos() {
  std::vector<TraceRingInfo> out;
  RingRegistry& reg = registry();
  std::lock_guard lk(reg.mu);
  out.reserve(reg.rings.size());
  for (const auto& r : reg.rings) {
    TraceRingInfo info;
    info.id = r->id();
    info.pushed = r->pushed();
    info.dropped = r->dropped();
    info.retained = info.pushed - info.dropped;
    info.name = r->name();
    out.push_back(info);
  }
  return out;
}

std::vector<TraceEvent> collect_trace() {
  std::vector<TraceEvent> all;
  {
    RingRegistry& reg = registry();
    std::lock_guard lk(reg.mu);
    for (const auto& r : reg.rings) {
      std::vector<TraceEvent> part = r->collect();
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& x, const TraceEvent& y) { return x.ts_ns < y.ts_ns; });
  return all;
}

bool dump_trace_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "trace dump: cannot open %s\n", path);
    return false;
  }
  const std::vector<TraceEvent> evs = collect_trace();
  const TraceTotals totals = trace_totals();
  const std::vector<TraceRingInfo> rings = trace_ring_infos();
  std::fprintf(f, "{\"trace_format\": 2, \"recorded\": %llu, \"dropped\": %llu, \"rings\": [",
               static_cast<unsigned long long>(totals.recorded),
               static_cast<unsigned long long>(totals.dropped));
  for (size_t i = 0; i < rings.size(); ++i) {
    std::fprintf(f,
                 "%s{\"id\": %u, \"name\": \"%s\", \"pushed\": %llu, \"dropped\": %llu}",
                 i == 0 ? "" : ", ", rings[i].id, rings[i].name.c_str(),
                 static_cast<unsigned long long>(rings[i].pushed),
                 static_cast<unsigned long long>(rings[i].dropped));
  }
  std::fprintf(f, "], \"events\": [\n");
  for (size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    std::fprintf(f,
                 "{\"t\": %llu, \"c\": %llu, \"ev\": \"%s\", \"k\": %u, \"node\": %u, "
                 "\"a\": %u, \"b\": %llu, \"r\": %u}%s\n",
                 static_cast<unsigned long long>(e.ts_ns),
                 static_cast<unsigned long long>(e.corr), ev_name(e.ev), e.kind, e.node, e.a,
                 static_cast<unsigned long long>(e.b), e.ring, i + 1 < evs.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return true;
}

void reset_trace() {
  RingRegistry& reg = registry();
  std::lock_guard lk(reg.mu);
  for (const auto& r : reg.rings) r->reset();
}

}  // namespace darray::obs
