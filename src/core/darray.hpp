// DArray<T>: the paper's public API (Fig. 3).
//
//   DArray<double> a = DArray<double>::create(cluster, n);        // constructor
//   a.get(i); a.set(i, v);                                        // Read/Write
//   { auto g = a.scoped_wlock(i); ... }                           // R/W locks
//   auto add = a.register_op(+[](double& x, double d){x+=d;}, 0.0);
//   a.apply(i, add, 0.5);                                         // Operate
//   { auto p = a.scoped_pin(i, PinMode::kRead); ... }             // hint
//
// The raw verbs (rlock/wlock/unlock, pin/unpin) remain for code that manages
// lifetimes itself; the scoped_* guards are the recommended form. Every op is
// traced as a span (obs/trace.hpp) when tracing is enabled: the correlation
// id minted at the API boundary rides the LocalRequest into the runtime and
// across the wire, so a slow get() can be attributed layer by layer.
//
// The handle is a cheap value type; every call uses the calling thread's
// bound node (see context.hpp). Element types must be trivially copyable and
// 1/2/4/8 bytes (DESIGN.md §6).
#pragma once

#include <concepts>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "core/context.hpp"
#include "obs/inflight.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/trace.hpp"
#include "runtime/array_meta.hpp"
#include "runtime/combine.hpp"
#include "runtime/node.hpp"

namespace darray {

using rt::PinMode;

template <typename T>
class DArray;

// Typed operator id from DArray<T>::register_op. Binding the element type at
// registration makes a cross-array apply() with the wrong element type a
// compile error instead of a silent bit-reinterpretation.
template <typename T>
class OpHandle {
 public:
  OpHandle() = default;
  // The raw registry id, for the escape-hatch overloads that still take one
  // (pin()/scoped_pin() with PinMode::kOperate, apply(index, uint16_t, T)).
  uint16_t id() const { return id_; }

 private:
  friend class DArray<T>;
  explicit OpHandle(uint16_t id) : id_(id) {}
  uint16_t id_ = rt::kNoOp;
};

namespace api_detail {

// RAII trace span for one public-API op: mints the correlation id, records
// kOpBegin/kOpEnd, feeds the per-{op × node} latency histogram at span end,
// and registers the op in the in-flight registry so the slow-op watchdog can
// see it. With tracing compiled out or disabled, corr stays 0 and both ends
// cost one branch on a cached bool.
struct OpSpan {
  uint64_t corr = 0;
  obs::OpKind kind;
  uint16_t node;
  uint64_t index;
  uint64_t t0 = 0;
  bool inflight = false;

  OpSpan(obs::OpKind k, uint32_t node_id, uint32_t array, uint64_t idx)
      : kind(k), node(static_cast<uint16_t>(node_id)), index(idx) {
    if (obs::tracing_enabled()) {
      corr = obs::new_corr_id();
      t0 = now_ns();
      obs::record(obs::Ev::kOpBegin, corr, static_cast<uint8_t>(kind), node, array, index);
      inflight = obs::inflight_begin(corr, kind, node, index, t0);
    }
  }
  ~OpSpan() {
    if (corr != 0) {
      obs::record(obs::Ev::kOpEnd, corr, static_cast<uint8_t>(kind), node, 0, index);
      obs::record_op_latency(kind, node, now_ns() - t0);
      if (inflight) obs::inflight_end();
    }
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;
};

}  // namespace api_detail

template <typename T>
class DArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8,
                "DArray elements must be 1/2/4/8 bytes");

 public:
  DArray() = default;

  // Collective constructor (call once; the handle may be shared/copied).
  // `partition` optionally gives each node's first element offset
  // (chunk-aligned), matching the paper's partition_offset argument.
  static DArray create(rt::Cluster& cluster, uint64_t n,
                       std::span<const uint64_t> partition = {}) {
    DArray a;
    a.cluster_ = &cluster;
    a.meta_ = cluster.create_array(n, sizeof(T), partition);
    return a;
  }

  uint64_t size() const { return meta_->n_elems; }
  const rt::ArrayMeta& meta() const { return *meta_; }
  rt::Cluster& cluster() const { return *cluster_; }

  // Element range owned by `node` (for owner-parallel iteration).
  uint64_t local_begin(rt::NodeId node) const { return meta_->local_begin(node); }
  uint64_t local_end(rt::NodeId node) const { return meta_->local_end(node); }

  // --- Read / Write ----------------------------------------------------------

  T get(uint64_t index) const {
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kGet, ctx.node, meta_->id, index);
    const rt::ChunkId c = meta_->chunk_of(index);
    const uint32_t off = meta_->offset_in_chunk(index);
    if (const PinEntry* p = ctx.find_pin(meta_->id, c)) {
      DARRAY_ASSERT_MSG(rt::dentry_readable(p->state), "get() through a non-read pin");
      return load_elem(p->data, off);
    }
    rt::Dentry& d = dentry(ctx, c);
    d.acquire_ref();  // Fig. 4 fast path
    if (rt::dentry_readable(d.state.load(std::memory_order_acquire))) {
      const T v = load_elem(d.data.load(std::memory_order_acquire), off);
      d.release_ref();
      return v;
    }
    d.release_ref();
    // Slow path: the runtime performs the read at grant time and returns the
    // value — one miss, one completed access, no retry loop.
    return from_bits(miss(ctx, rt::LocalRequest::Kind::kRead, c, index, rt::kNoOp, 0,
                          span.corr));
  }

  void set(uint64_t index, T value) const {
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kSet, ctx.node, meta_->id, index);
    const rt::ChunkId c = meta_->chunk_of(index);
    const uint32_t off = meta_->offset_in_chunk(index);
    if (const PinEntry* p = ctx.find_pin(meta_->id, c)) {
      DARRAY_ASSERT_MSG(rt::dentry_writable(p->state), "set() through a non-write pin");
      store_elem(p->data, off, value);
      return;
    }
    rt::Dentry& d = dentry(ctx, c);
    d.acquire_ref();
    if (rt::dentry_writable(d.state.load(std::memory_order_acquire))) {
      store_elem(d.data.load(std::memory_order_acquire), off, value);
      d.release_ref();
      return;
    }
    d.release_ref();
    miss(ctx, rt::LocalRequest::Kind::kWrite, c, index, rt::kNoOp, to_bits(value),
         span.corr);
  }

  // --- bulk transfers ---------------------------------------------------------
  // Copy out.size() (src.size()) elements starting at `first` out of / into
  // the array, acquiring each covered chunk once (not per element). Atomicity
  // is per chunk, like a sequence of get/set. The array side is copied with
  // relaxed atomics (rt::atomic_copy_out/in), so a copy that races a writer
  // on the same node is race-free, though it may mix old and new bytes.
  //
  // Out-of-bounds extents return Status::kOutOfRange instead of aborting —
  // the serving path (src/serve) reflects bad client extents as typed errors,
  // so the old DARRAY_ASSERT here would turn one malformed request into a
  // cluster-wide crash. Callers that want the fail-fast behaviour assert on
  // the returned Status.

  Status get_range(uint64_t first, std::span<T> out) const {
    if (out.size() > size() || first > size() - out.size()) return Status::kOutOfRange;
    if (out.empty()) return Status::kOk;  // no chunks touched, no op recorded
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kGetRange, ctx.node, meta_->id, first);
    bulk_op(first, out.size(),
            [&](std::byte* base, uint32_t off, uint64_t n, uint64_t done) {
              rt::atomic_copy_out(reinterpret_cast<std::byte*>(out.data() + done),
                                  base + size_t{off} * sizeof(T), n * sizeof(T));
            },
            /*write=*/false, span.corr);
    return Status::kOk;
  }

  Status set_range(uint64_t first, std::span<const T> src) const {
    if (src.size() > size() || first > size() - src.size()) return Status::kOutOfRange;
    if (src.empty()) return Status::kOk;  // no chunks touched, no op recorded
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kSetRange, ctx.node, meta_->id, first);
    bulk_op(first, src.size(),
            [&](std::byte* base, uint32_t off, uint64_t n, uint64_t done) {
              rt::atomic_copy_in(base + size_t{off} * sizeof(T),
                                 reinterpret_cast<const std::byte*>(src.data() + done),
                                 n * sizeof(T));
            },
            /*write=*/true, span.corr);
    return Status::kOk;
  }

  // Non-blocking, chunk-granular read-ahead over [first, first+count): submit
  // a best-effort prefetch for every covered non-home chunk that is cold. The
  // engine treats these exactly like its own sequential read-ahead (they are
  // dropped if the chunk is busy or the cache is full), so a later get_range
  // over the same extent finds warm chunks instead of paying a demand miss.
  // This is the hook the compute layer's ChunkCursor overlaps fetches with
  // the user kernel through (docs/compute.md).
  void prefetch_range(uint64_t first, uint64_t count) const {
    if (count == 0) return;
    DARRAY_ASSERT_MSG(count <= size() && first <= size() - count,
                      "prefetch_range() past the end of the array");
    ThreadCtx& ctx = this_thread_ctx();
    rt::NodeRuntime& node = ctx.cluster->node(ctx.node);
    const rt::NodeArrayState* as = node.array_state(meta_->id);
    const rt::ChunkId c0 = meta_->chunk_of(first);
    const rt::ChunkId c1 = meta_->chunk_of(first + count - 1);
    for (rt::ChunkId c = c0; c <= c1; ++c) {
      if (meta_->home_of_chunk(c) == ctx.node) continue;
      // Rough pre-filter; the owning engine re-checks before issuing.
      if (as->dentries[c].state.load(std::memory_order_relaxed) !=
          rt::DentryState::kInvalid)
        continue;
      auto* r = new rt::LocalRequest();  // heap-owned: no completion, engine deletes
      r->kind = rt::LocalRequest::Kind::kPrefetch;
      r->array = meta_->id;
      r->chunk = c;
      node.submit_local(r);
    }
  }

  // Advisory probe: true when every chunk covering [first, first+count) is
  // readable right now (pinned by this thread, or a readable dentry). Relaxed
  // loads, no references taken — the answer can go stale immediately, so this
  // is only good for accounting (prefetch hit/miss) and heuristics.
  bool range_cached(uint64_t first, uint64_t count) const {
    if (count == 0) return true;
    DARRAY_ASSERT(count <= size() && first <= size() - count);
    ThreadCtx& ctx = this_thread_ctx();
    const rt::NodeArrayState* as = ctx.cluster->node(ctx.node).array_state(meta_->id);
    const rt::ChunkId c0 = meta_->chunk_of(first);
    const rt::ChunkId c1 = meta_->chunk_of(first + count - 1);
    for (rt::ChunkId c = c0; c <= c1; ++c) {
      if (ctx.find_pin(meta_->id, c)) continue;
      if (!rt::dentry_readable(as->dentries[c].state.load(std::memory_order_relaxed)))
        return false;
    }
    return true;
  }

  // Set every element of [begin, end) to `value` (chunk-at-a-time).
  void fill(uint64_t begin, uint64_t end, T value) const {
    DARRAY_ASSERT(begin <= end && end <= size());
    bulk_op(begin, end - begin,
            [&](std::byte* base, uint32_t off, uint64_t n, uint64_t) {
              for (uint64_t k = 0; k < n; ++k)
                std::memcpy(base + size_t{off + k} * sizeof(T), &value, sizeof(T));
            },
            /*write=*/true);
  }

  // Fold [begin, end) left-to-right with `f`, starting from `init`
  // (chunk-at-a-time snapshot semantics, like a sequence of get()).
  template <typename F>
  T reduce(uint64_t begin, uint64_t end, T init, F&& f) const {
    DARRAY_ASSERT(begin <= end && end <= size());
    T acc = init;
    bulk_op(begin, end - begin,
            [&](std::byte* base, uint32_t off, uint64_t n, uint64_t) {
              for (uint64_t k = 0; k < n; ++k) {
                T v;
                std::memcpy(&v, base + size_t{off + k} * sizeof(T), sizeof(T));
                acc = f(acc, v);
              }
            },
            /*write=*/false);
    return acc;
  }

  // --- Operate (§4.3) ---------------------------------------------------------

  // Register an associative + commutative operator; `identity` seeds combine
  // buffers (0 for add, numeric_limits::max() for min, ...). The returned
  // handle is valid cluster-wide and carries the element type, so applying it
  // through a differently-typed array fails to compile.
  OpHandle<T> register_op(void (*fn)(T& acc, T operand), T identity) const {
    rt::OpDesc desc;
    desc.fn = [fn](void* acc, const void* operand) {
      T tmp;
      std::memcpy(&tmp, operand, sizeof(T));
      fn(*static_cast<T*>(acc), tmp);
    };
    desc.identity_bits = 0;
    std::memcpy(&desc.identity_bits, &identity, sizeof(T));
    desc.elem_size = sizeof(T);
    return OpHandle<T>(cluster_->register_op(std::move(desc)));
  }

  void apply(uint64_t index, OpHandle<T> op, T operand) const {
    apply(index, op.id(), operand);
  }

  // A handle registered for a different element type is a bug: deleting the
  // exact-match template turns it into a direct compile error naming both
  // element types instead of a missing-overload wall.
  template <typename U, typename V>
    requires(!std::same_as<U, T>)
  void apply(uint64_t index, OpHandle<U> op, V operand) const = delete;

  void apply(uint64_t index, uint16_t op_id, T operand) const {
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kApply, ctx.node, meta_->id, index);
    const rt::ChunkId c = meta_->chunk_of(index);
    const uint32_t off = meta_->offset_in_chunk(index);
    const rt::OpDesc& op = cluster_->op(op_id);
    DARRAY_ASSERT(op.elem_size == sizeof(T));
    if (const PinEntry* p = ctx.find_pin(meta_->id, c)) {
      apply_via_pin(*p, off, op, op_id, operand);
      return;
    }
    rt::Dentry& d = dentry(ctx, c);
    d.acquire_ref();
    const rt::DentryState s = d.state.load(std::memory_order_acquire);
    if (s == rt::DentryState::kWrite) {
      // Exclusive permission: read-modify-write straight into the data.
      rt::atomic_apply(d.data.load(std::memory_order_acquire) + size_t{off} * sizeof(T),
                       op, &operand);
      d.release_ref();
      return;
    }
    if (s == rt::DentryState::kOperated &&
        d.op_id.load(std::memory_order_acquire) == op_id) {
      if (std::byte* cb = d.combine.load(std::memory_order_acquire)) {
        // Remote participant: fold into the combine buffer (Fig. 10).
        rt::CombineView view{cb, d.combine_bitmap.load(std::memory_order_acquire),
                             meta_->chunk_elems};
        rt::combine_into(view, off, op, &operand);
      } else {
        // Home participant: reduce directly into the subarray.
        rt::atomic_apply(d.data.load(std::memory_order_acquire) + size_t{off} * sizeof(T),
                         op, &operand);
      }
      d.release_ref();
      return;
    }
    d.release_ref();
    miss(ctx, rt::LocalRequest::Kind::kOperate, c, index, op_id, to_bits(operand),
         span.corr);
  }

  // --- Concurrency control -----------------------------------------------------

  void rlock(uint64_t index) const {
    lock_op(index, rt::LocalRequest::Kind::kLockAcq, false, obs::OpKind::kRlock);
  }
  void wlock(uint64_t index) const {
    lock_op(index, rt::LocalRequest::Kind::kLockAcq, true, obs::OpKind::kWlock);
  }
  void unlock(uint64_t index) const {
    lock_op(index, rt::LocalRequest::Kind::kLockRel, false, obs::OpKind::kUnlock);
  }

  // Move-only RAII guards over the raw lock/pin verbs: release on scope exit
  // (including exceptional exit), or early via unlock()/release(). The guard
  // holds a copy of this handle, so it may outlive the DArray object (though
  // not the cluster) like any other handle copy.
  class ScopedLock {
   public:
    ScopedLock(ScopedLock&& o) noexcept : a_(o.a_), index_(o.index_), held_(o.held_) {
      o.held_ = false;
    }
    ScopedLock& operator=(ScopedLock&& o) noexcept {
      if (this != &o) {
        unlock();
        a_ = o.a_;
        index_ = o.index_;
        held_ = o.held_;
        o.held_ = false;
      }
      return *this;
    }
    ScopedLock(const ScopedLock&) = delete;
    ScopedLock& operator=(const ScopedLock&) = delete;
    ~ScopedLock() { unlock(); }

    uint64_t index() const { return index_; }
    bool held() const { return held_; }
    void unlock() {
      if (held_) {
        held_ = false;
        a_.unlock(index_);
      }
    }

   private:
    friend class DArray;
    ScopedLock(const DArray& a, uint64_t index) : a_(a), index_(index), held_(true) {}
    DArray a_;
    uint64_t index_;
    bool held_;
  };

  [[nodiscard]] ScopedLock scoped_rlock(uint64_t index) const {
    rlock(index);
    return ScopedLock(*this, index);
  }
  [[nodiscard]] ScopedLock scoped_wlock(uint64_t index) const {
    wlock(index);
    return ScopedLock(*this, index);
  }

  // --- Optimization hint (§4.1 Pin) ----------------------------------------------

  // Hold the chunk containing `index` in `mode` until unpin(). While pinned,
  // get/set/apply on the chunk run with zero atomics. Returns false only if
  // the thread's pin slots (kMaxPins) are exhausted.
  bool pin(uint64_t index, PinMode mode, uint16_t op_id = rt::kNoOp) const {
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kPin, ctx.node, meta_->id, index);
    const rt::ChunkId c = meta_->chunk_of(index);
    if (ctx.find_pin(meta_->id, c)) return true;  // already pinned by this thread
    PinEntry* slot = ctx.free_pin_slot();
    if (!slot) return false;
    rt::Dentry& d = dentry(ctx, c);
    d.acquire_ref();
    const rt::DentryState s = d.state.load(std::memory_order_acquire);
    if (pin_satisfied(s, d, mode, op_id)) {
      record_pin(slot, d, c, s);
      return true;  // reference intentionally kept until unpin()
    }
    d.release_ref();
    // The runtime grants the permission, takes the reference on our behalf,
    // and reports the granted state.
    rt::LocalRequest r;
    r.kind = rt::LocalRequest::Kind::kPin;
    r.pin_mode = mode;
    r.array = meta_->id;
    r.chunk = c;
    r.index = index;
    r.op_id = op_id;
    r.trace_id = span.corr;
    r.stream = continues_stream(ctx, c) && mode == PinMode::kRead;
    ctx.cluster->node(ctx.node).submit_and_wait(&r);
    record_pin(slot, d, c, r.granted);
    return true;
  }

  void unpin(uint64_t index) const {
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(obs::OpKind::kUnpin, ctx.node, meta_->id, index);
    const rt::ChunkId c = meta_->chunk_of(index);
    PinEntry* p = ctx.find_pin(meta_->id, c);
    DARRAY_ASSERT_MSG(p != nullptr, "unpin() of a chunk this thread never pinned");
    p->valid = false;
    p->dentry->release_ref();
  }

  // Move-only pin guard. Pinning can fail (the thread's pin slots are a fixed
  // budget), so the guard is truthy only when it actually holds a pin; ops
  // fall back to the normal path when it doesn't.
  class ScopedPin {
   public:
    ScopedPin(ScopedPin&& o) noexcept : a_(o.a_), index_(o.index_), held_(o.held_) {
      o.held_ = false;
    }
    ScopedPin& operator=(ScopedPin&& o) noexcept {
      if (this != &o) {
        release();
        a_ = o.a_;
        index_ = o.index_;
        held_ = o.held_;
        o.held_ = false;
      }
      return *this;
    }
    ScopedPin(const ScopedPin&) = delete;
    ScopedPin& operator=(const ScopedPin&) = delete;
    ~ScopedPin() { release(); }

    explicit operator bool() const { return held_; }
    bool pinned() const { return held_; }
    uint64_t index() const { return index_; }
    void release() {
      if (held_) {
        held_ = false;
        a_.unpin(index_);
      }
    }

   private:
    friend class DArray;
    ScopedPin(const DArray& a, uint64_t index, bool held)
        : a_(a), index_(index), held_(held) {}
    DArray a_;
    uint64_t index_;
    bool held_;
  };

  [[nodiscard]] ScopedPin scoped_pin(uint64_t index, PinMode mode,
                                     uint16_t op_id = rt::kNoOp) const {
    return ScopedPin(*this, index, pin(index, mode, op_id));
  }

 private:
  // Visit [index, index+count) chunk by chunk with the chunk reference held.
  template <typename Fn>
  void bulk_op(uint64_t index, uint64_t count, Fn&& fn, bool write,
               uint64_t corr = 0) const {
    ThreadCtx& ctx = this_thread_ctx();
    uint64_t done = 0;
    while (done < count) {
      const uint64_t i = index + done;
      const rt::ChunkId c = meta_->chunk_of(i);
      const uint32_t off = meta_->offset_in_chunk(i);
      const uint64_t in_chunk = std::min<uint64_t>(count - done, meta_->chunk_elems - off);
      if (const PinEntry* p = ctx.find_pin(meta_->id, c)) {
        // A range that straddles into a chunk this thread pinned must satisfy
        // the pin's granted permission, same contract as get()/set(). Falling
        // through to the runtime instead would deadlock: the pin's own
        // reference blocks the drain the permission upgrade needs. Before
        // this check, a set_range straddling into a read-pinned chunk wrote
        // into the Shared copy and the writes were silently lost.
        DARRAY_ASSERT_MSG(write ? rt::dentry_writable(p->state)
                                : rt::dentry_readable(p->state),
                          write ? "range write through a non-write pin"
                                : "range read through a non-read pin");
        fn(p->data, off, in_chunk, done);
        done += in_chunk;
        continue;
      }
      rt::Dentry& d = dentry(ctx, c);
      d.acquire_ref();
      const rt::DentryState s = d.state.load(std::memory_order_acquire);
      if (write ? rt::dentry_writable(s) : rt::dentry_readable(s)) {
        fn(d.data.load(std::memory_order_acquire), off, in_chunk, done);
        d.release_ref();
        done += in_chunk;
        continue;
      }
      d.release_ref();
      // Pin the chunk through the runtime (which holds the reference for us),
      // run the bulk copy under it, then release.
      rt::LocalRequest r;
      r.kind = rt::LocalRequest::Kind::kPin;
      r.pin_mode = write ? PinMode::kWrite : PinMode::kRead;
      r.array = meta_->id;
      r.chunk = c;
      r.index = i;
      r.trace_id = corr;
      r.stream = continues_stream(ctx, c) && !write;
      ctx.cluster->node(ctx.node).submit_and_wait(&r);
      fn(d.data.load(std::memory_order_acquire), off, in_chunk, done);
      d.release_ref();
      done += in_chunk;
    }
  }

  static T from_bits(uint64_t bits) {
    T v;
    std::memcpy(&v, &bits, sizeof(T));
    return v;
  }
  static uint64_t to_bits(T v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
  }
  // Element loads/stores are atomic: application fast paths, the runtime's
  // perform-at-grant path, and atomic_apply may hit the same element.
  static T load_elem(const std::byte* base, uint32_t off) {
    return from_bits(rt::atomic_load_elem(base + size_t{off} * sizeof(T), sizeof(T)));
  }
  static void store_elem(std::byte* base, uint32_t off, T v) {
    rt::atomic_store_elem(base + size_t{off} * sizeof(T), sizeof(T), to_bits(v));
  }

  rt::Dentry& dentry(ThreadCtx& ctx, rt::ChunkId c) const {
    DARRAY_ASSERT_MSG(ctx.cluster == cluster_, "thread not bound to this cluster");
    rt::NodeArrayState* as = ctx.cluster->node(ctx.node).array_state(meta_->id);
    return as->dentries[c];
  }

  // Submit a slow-path access; the runtime performs it at grant time. For
  // kRead the returned bits are the element value.
  uint64_t miss(ThreadCtx& ctx, rt::LocalRequest::Kind kind, rt::ChunkId c, uint64_t index,
                uint16_t op_id = rt::kNoOp, uint64_t operand = 0, uint64_t corr = 0) const {
    rt::LocalRequest r;
    r.kind = kind;
    r.array = meta_->id;
    r.chunk = c;
    r.index = index;
    r.op_id = op_id;
    r.operand = operand;
    r.trace_id = corr;
    r.stream = continues_stream(ctx, c) && kind == rt::LocalRequest::Kind::kRead;
    ctx.cluster->node(ctx.node).submit_and_wait(&r);
    return r.operand;
  }

  bool continues_stream(ThreadCtx& ctx, rt::ChunkId c) const {
    return ctx.continues_stream(meta_->id, c, ctx.cluster->config().prefetch_chunks);
  }

  void record_pin(PinEntry* slot, rt::Dentry& d, rt::ChunkId c, rt::DentryState granted) const {
    slot->valid = true;
    slot->array = meta_->id;
    slot->chunk = c;
    slot->data = d.data.load(std::memory_order_acquire);
    slot->combine = d.combine.load(std::memory_order_acquire);
    slot->bitmap = d.combine_bitmap.load(std::memory_order_acquire);
    slot->state = granted;
    slot->op_id = d.op_id.load(std::memory_order_acquire);
    slot->dentry = &d;
  }

  void lock_op(uint64_t index, rt::LocalRequest::Kind kind, bool write,
               obs::OpKind span_kind) const {
    ThreadCtx& ctx = this_thread_ctx();
    api_detail::OpSpan span(span_kind, ctx.node, meta_->id, index);
    rt::LocalRequest r;
    r.kind = kind;
    r.lock_write = write ? 1 : 0;
    r.array = meta_->id;
    r.chunk = meta_->chunk_of(index);
    r.index = index;
    r.trace_id = span.corr;
    ctx.cluster->node(ctx.node).submit_and_wait(&r);
  }

  void apply_via_pin(const PinEntry& p, uint32_t off, const rt::OpDesc& op, uint16_t op_id,
                     T operand) const {
    if (p.state == rt::DentryState::kWrite) {
      rt::atomic_apply(p.data + size_t{off} * sizeof(T), op, &operand);
      return;
    }
    DARRAY_ASSERT_MSG(p.state == rt::DentryState::kOperated && p.op_id == op_id,
                      "apply() through an incompatible pin");
    if (p.combine) {
      rt::CombineView view{p.combine, p.bitmap, meta_->chunk_elems};
      rt::combine_into(view, off, op, &operand);
    } else {
      rt::atomic_apply(p.data + size_t{off} * sizeof(T), op, &operand);
    }
  }

  static bool pin_satisfied(rt::DentryState s, rt::Dentry& d, PinMode mode, uint16_t op_id) {
    switch (mode) {
      case PinMode::kRead: return rt::dentry_readable(s);
      case PinMode::kWrite: return rt::dentry_writable(s);
      case PinMode::kOperate:
        return s == rt::DentryState::kWrite ||
               (s == rt::DentryState::kOperated &&
                d.op_id.load(std::memory_order_acquire) == op_id);
    }
    return false;
  }

  rt::Cluster* cluster_ = nullptr;
  const rt::ArrayMeta* meta_ = nullptr;
};

}  // namespace darray
