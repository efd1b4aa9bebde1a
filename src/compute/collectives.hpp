// Chunked array collectives over DArray: dot, norm2, axpy, scale, copy, and a
// row-chunked gemv. Every collective is SPMD — all nodes call it with the same
// arguments in the same order (enforced by matching ReduceBoard sequence
// numbers). Each node reduces/updates only the extents it owns, streaming any
// remote operand through a ChunkCursor so fetches of chunk k+1 overlap the
// kernel on chunk k; scalar partials then combine through a binomial reduction
// tree of kReducePart messages (small sends that ride the comm layer's
// coalescing), and the root broadcasts the total back down the same tree.
//
// Determinism: with Options::deterministic, dot/norm2 switch from one scalar
// partial per node to one partial per *array chunk*, each computed by pairwise
// summation. Chunk partials depend only on the chunk grid, and the root folds
// them in a fixed chunk-indexed pairwise order, so the result is bitwise
// identical across node counts, partitions, and tree shapes.
//
// Mutating collectives (axpy/scale/copy/gemv) end with a tree barrier, so on
// return every node's update is visible and the next collective may run
// immediately — the property power iteration leans on.
#pragma once

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "compute/chunk_cursor.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node.hpp"
#include "runtime/reduce_board.hpp"

namespace darray::compute {

namespace detail {

template <typename T>
uint64_t to_bits(T v) {
  static_assert(sizeof(T) <= sizeof(uint64_t));
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  return b;
}

template <typename T>
T from_bits(uint64_t b) {
  T v;
  std::memcpy(&v, &b, sizeof(T));
  return v;
}

// One edge of the reduction tree. The sequence number rides in txn_id (the
// board key).
inline void send_part(rt::Cluster& cl, rt::NodeId self, rt::NodeId dst, uint32_t seq,
                      uint32_t frag, uint32_t nfrags, uint64_t bits,
                      net::PayloadBuf payload = {}) {
  net::TxRequest t;
  t.dst = static_cast<uint16_t>(dst);
  t.hdr.type = net::MsgType::kReducePart;
  t.hdr.txn_id = seq;
  t.hdr.rkey = frag;
  t.hdr.aux = nfrags;
  t.hdr.addr = bits;
  t.payload = std::move(payload);
  obs::compute_counters().reduce_msgs.fetch_add(1, std::memory_order_relaxed);
  cl.node(self).comm().post(std::move(t));
}

// Binomial tree rooted at node 0: node `self` joins its parent on its lowest
// set bit; its children are self|(1<<r) for r below that bit. Children merge
// in ascending-rank order — a fixed shape for a given node count — and the
// total flows back down the same edges. Returns the combined value everywhere.
template <typename T, typename Merge>
T tree_allreduce(rt::Cluster& cl, rt::NodeId self, uint32_t seq, T value, Merge&& merge) {
  const uint32_t n = cl.num_nodes();
  rt::ReduceBoard& board = cl.node(self).reduce_board();
  uint32_t up_bit = 32;  // bit of the edge to our parent; 32 = we are the root
  for (uint32_t r = 0; (1u << r) < n; ++r) {
    if (self & (1u << r)) {
      send_part(cl, self, self ^ (1u << r), seq, 0, 1, to_bits(value));
      up_bit = r;
      break;
    }
    const uint32_t child = self | (1u << r);
    if (child < n)
      value = merge(value, from_bits<T>(board.await(rt::ReduceBoard::key(seq, child)).bits));
  }
  if (up_bit != 32)  // non-root: the total comes back from the parent
    value = from_bits<T>(board.await(rt::ReduceBoard::key(seq, self ^ (1u << up_bit))).bits);
  uint32_t top = 0;
  while ((1u << top) < n) ++top;
  for (uint32_t r = (up_bit == 32 ? top : up_bit); r-- > 0;) {
    const uint32_t child = self | (1u << r);
    if (child < n) send_part(cl, self, child, seq, 0, 1, to_bits(value));
  }
  return value;
}

// Full-tree sync: returns once every node has entered. Collectives that
// mutate an array end with one so callers may chain dependent collectives.
inline void barrier(rt::Cluster& cl, rt::NodeId self, uint32_t seq) {
  tree_allreduce<uint64_t>(cl, self, seq, 0, [](uint64_t a, uint64_t b) { return a + b; });
}

// --- deterministic mode ------------------------------------------------------

struct ChunkPartial {
  uint64_t chunk;  // array chunk id
  uint64_t bits;   // that chunk's partial, raw element bits
};
static_assert(sizeof(ChunkPartial) == 16, "wire format: 16 bytes per entry");

// Pairwise product-sum with an association fixed by n alone (sequential base
// case ≤ 16, then halving), so equal inputs give bitwise-equal sums no matter
// how the elements were distributed across nodes.
template <typename T>
T pairwise_dot(const T* a, const T* b, uint64_t n) {
  if (n <= 16) {
    T s{};
    for (uint64_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  }
  const uint64_t h = n / 2;
  return pairwise_dot(a, b, h) + pairwise_dot(a + h, b + h, n - h);
}

template <typename T>
T pairwise_fold(const T* v, uint64_t n) {
  if (n <= 16) {
    T s{};
    for (uint64_t i = 0; i < n; ++i) s += v[i];
    return s;
  }
  const uint64_t h = n / 2;
  return pairwise_fold(v, h) + pairwise_fold(v + h, n - h);
}

// Deterministic allreduce: per-chunk partials travel up the same binomial
// tree as opaque payload entries (fragmented at frag_cap entries so a message
// never exceeds the comm layer's send-buffer budget of chunk_elems × 16 B);
// the root scatters them into a dense chunk-indexed vector and folds it
// pairwise — an order independent of node count — then broadcasts the scalar
// back down.
template <typename T>
T det_allreduce(rt::Cluster& cl, rt::NodeId self, uint32_t seq,
                std::vector<ChunkPartial> parts, uint64_t n_chunks, uint32_t frag_cap) {
  const uint32_t n = cl.num_nodes();
  rt::ReduceBoard& board = cl.node(self).reduce_board();
  uint32_t up_bit = 32;
  for (uint32_t r = 0; (1u << r) < n; ++r) {
    if (self & (1u << r)) {
      const uint32_t parent = self ^ (1u << r);
      const uint32_t nfrags = parts.empty()
          ? 1
          : static_cast<uint32_t>((parts.size() + frag_cap - 1) / frag_cap);
      for (uint32_t f = 0; f < nfrags; ++f) {
        const uint64_t b0 = uint64_t{f} * frag_cap;
        const uint64_t cnt = std::min<uint64_t>(frag_cap, parts.size() - b0);
        net::PayloadBuf pl;
        if (cnt) pl.assign(reinterpret_cast<const std::byte*>(parts.data() + b0),
                           cnt * sizeof(ChunkPartial));
        send_part(cl, self, parent, seq, f, nfrags, 0, std::move(pl));
      }
      up_bit = r;
      break;
    }
    const uint32_t child = self | (1u << r);
    if (child < n) {
      uint32_t nfrags = 1;  // corrected from the first fragment's header
      for (uint32_t f = 0; f < nfrags; ++f) {
        rt::ReduceBoard::Part p = board.await(rt::ReduceBoard::key(seq, child, f));
        nfrags = p.frags;
        const uint64_t cnt = p.payload.size() / sizeof(ChunkPartial);
        const uint64_t base = parts.size();
        parts.resize(base + cnt);
        std::memcpy(parts.data() + base, p.payload.data(), cnt * sizeof(ChunkPartial));
      }
    }
  }
  T total{};
  if (up_bit == 32) {
    // Root: each chunk's partial arrived exactly once (chunks have one owner).
    std::vector<T> dense(n_chunks, T{});
    for (const ChunkPartial& e : parts) {
      DARRAY_ASSERT(e.chunk < n_chunks);
      dense[e.chunk] = from_bits<T>(e.bits);
    }
    total = pairwise_fold(dense.data(), dense.size());
  } else {
    total = from_bits<T>(board.await(rt::ReduceBoard::key(seq, self ^ (1u << up_bit))).bits);
  }
  uint32_t top = 0;
  while ((1u << top) < n) ++top;
  for (uint32_t r = (up_bit == 32 ? top : up_bit); r-- > 0;) {
    const uint32_t child = self | (1u << r);
    if (child < n) send_part(cl, self, child, seq, 0, 1, to_bits(total));
  }
  return total;
}

}  // namespace detail

// Global dot product ⟨x, y⟩. Each node streams both operands over its owned
// extent of x (y may be partitioned differently — that is where the cursor's
// overlap earns its keep) and the partials combine through the reduction tree.
template <typename T>
T dot(const DArray<T>& x, const DArray<T>& y, const Options& opt = {}) {
  DARRAY_ASSERT_MSG(x.size() == y.size(), "dot(): operand sizes differ");
  ThreadCtx& ctx = this_thread_ctx();
  rt::Cluster& cl = x.cluster();
  DARRAY_ASSERT(&cl == &y.cluster());
  const rt::NodeId self = ctx.node;
  api_detail::OpSpan span(obs::OpKind::kDot, self, x.meta().id, 0);
  obs::compute_counters().collectives.fetch_add(1, std::memory_order_relaxed);
  const uint32_t seq = cl.node(self).reduce_board().next_seq();
  const uint64_t lo = x.local_begin(self);
  const uint64_t hi = x.local_end(self);

  if (opt.deterministic) {
    // One pairwise partial per array chunk: force the cursor onto the array's
    // chunk grid so every view is exactly one chunk.
    const rt::ArrayMeta& m = x.meta();
    Options det = opt;
    det.chunk_elems = m.chunk_elems;
    ChunkCursor<T> xs(x, lo, hi, det), ys(y, lo, hi, det);
    typename ChunkCursor<T>::View xv, yv;
    std::vector<detail::ChunkPartial> parts;
    while (xs.next(xv)) {
      const bool more = ys.next(yv);
      DARRAY_ASSERT(more && yv.count == xv.count);
      parts.push_back({m.chunk_of(xv.first),
                       detail::to_bits(detail::pairwise_dot(xv.data, yv.data, xv.count))});
    }
    return detail::det_allreduce<T>(cl, self, seq, std::move(parts), m.n_chunks,
                                    m.chunk_elems);
  }

  T partial{};
  ChunkCursor<T> xs(x, lo, hi, opt), ys(y, lo, hi, opt);
  typename ChunkCursor<T>::View xv, yv;
  while (xs.next(xv)) {
    const bool more = ys.next(yv);
    DARRAY_ASSERT(more && yv.count == xv.count);
    for (uint64_t i = 0; i < xv.count; ++i) partial += xv.data[i] * yv.data[i];
  }
  return detail::tree_allreduce(cl, self, seq, partial,
                                [](T a, T b) { return a + b; });
}

// Euclidean norm ‖x‖₂ = sqrt(⟨x, x⟩).
template <typename T>
double norm2(const DArray<T>& x, const Options& opt = {}) {
  api_detail::OpSpan span(obs::OpKind::kNorm2, this_thread_ctx().node, x.meta().id, 0);
  return std::sqrt(static_cast<double>(dot(x, x, opt)));
}

// y ← α·x + y. Each node updates the y extents it owns, streaming x over the
// same index range (remote when the partitions differ). Barrier on return.
template <typename T>
void axpy(T alpha, const DArray<T>& x, const DArray<T>& y, const Options& opt = {}) {
  DARRAY_ASSERT_MSG(x.size() == y.size(), "axpy(): operand sizes differ");
  ThreadCtx& ctx = this_thread_ctx();
  rt::Cluster& cl = y.cluster();
  const rt::NodeId self = ctx.node;
  api_detail::OpSpan span(obs::OpKind::kAxpy, self, y.meta().id, 0);
  obs::compute_counters().collectives.fetch_add(1, std::memory_order_relaxed);
  const uint32_t seq = cl.node(self).reduce_board().next_seq();
  ChunkCursor<T> xs(x, y.local_begin(self), y.local_end(self), opt);
  typename ChunkCursor<T>::View xv;
  std::vector<T> yb;
  while (xs.next(xv)) {
    yb.resize(xv.count);
    y.get_range(xv.first, std::span<T>(yb));
    for (uint64_t i = 0; i < xv.count; ++i) yb[i] += alpha * xv.data[i];
    y.set_range(xv.first, std::span<const T>(yb));
  }
  detail::barrier(cl, self, seq);
}

// x ← α·x over the extents each node owns. Barrier on return.
template <typename T>
void scale(T alpha, const DArray<T>& x, const Options& opt = {}) {
  ThreadCtx& ctx = this_thread_ctx();
  rt::Cluster& cl = x.cluster();
  const rt::NodeId self = ctx.node;
  api_detail::OpSpan span(obs::OpKind::kScale, self, x.meta().id, 0);
  obs::compute_counters().collectives.fetch_add(1, std::memory_order_relaxed);
  const uint32_t seq = cl.node(self).reduce_board().next_seq();
  const uint64_t lo = x.local_begin(self);
  const uint64_t hi = x.local_end(self);
  const uint64_t step = opt.chunk_elems ? opt.chunk_elems : x.meta().chunk_elems;
  std::vector<T> buf;
  for (uint64_t i = lo; i < hi; i += step) {
    const uint64_t n = std::min<uint64_t>(step, hi - i);
    buf.resize(n);
    x.get_range(i, std::span<T>(buf));
    for (T& v : buf) v = alpha * v;
    x.set_range(i, std::span<const T>(buf));
    obs::compute_counters().chunks.fetch_add(1, std::memory_order_relaxed);
  }
  detail::barrier(cl, self, seq);
}

// dst ← src (equal sizes; partitions may differ). Barrier on return.
template <typename T>
void copy(const DArray<T>& src, const DArray<T>& dst, const Options& opt = {}) {
  DARRAY_ASSERT_MSG(src.size() == dst.size(), "copy(): operand sizes differ");
  ThreadCtx& ctx = this_thread_ctx();
  rt::Cluster& cl = dst.cluster();
  const rt::NodeId self = ctx.node;
  const uint32_t seq = cl.node(self).reduce_board().next_seq();
  ChunkCursor<T> ss(src, dst.local_begin(self), dst.local_end(self), opt);
  typename ChunkCursor<T>::View sv;
  while (ss.next(sv)) dst.set_range(sv.first, std::span<const T>(sv.data, sv.count));
  detail::barrier(cl, self, seq);
}

// y ← α·A·x + β·y for a row-major n_rows × n_cols matrix stored flat in A.
// A's partition must be row-aligned (each node owns whole rows); each node
// computes its rows' results, streaming x exactly once through a cursor while
// the rows' matrix blocks are read from the owned (local) extent. Barrier on
// return.
template <typename T>
void gemv(T alpha, const DArray<T>& A, const DArray<T>& x, T beta, const DArray<T>& y,
          uint64_t n_rows, uint64_t n_cols, const Options& opt = {}) {
  DARRAY_ASSERT_MSG(A.size() == n_rows * n_cols, "gemv(): A size != n_rows × n_cols");
  DARRAY_ASSERT_MSG(x.size() == n_cols && y.size() == n_rows,
                    "gemv(): vector sizes do not match the matrix shape");
  ThreadCtx& ctx = this_thread_ctx();
  rt::Cluster& cl = A.cluster();
  const rt::NodeId self = ctx.node;
  api_detail::OpSpan span(obs::OpKind::kGemv, self, A.meta().id, 0);
  obs::compute_counters().collectives.fetch_add(1, std::memory_order_relaxed);
  const uint32_t seq = cl.node(self).reduce_board().next_seq();
  const uint64_t alo = A.local_begin(self);
  const uint64_t ahi = A.local_end(self);
  DARRAY_ASSERT_MSG(alo % n_cols == 0 && ahi % n_cols == 0,
                    "gemv(): A's partition must be row-aligned "
                    "(size chunks so chunk_elems divides n_cols)");
  const uint64_t r0 = alo / n_cols;
  const uint64_t r1 = ahi / n_cols;

  std::vector<T> yb(r1 - r0, T{});
  if (beta != T{}) {
    y.get_range(r0, std::span<T>(yb));
    for (T& v : yb) v = beta * v;
  }
  // Row-chunked: outer loop streams x's column blocks once (overlapped);
  // the inner loop visits every owned row's matching block, which is local.
  ChunkCursor<T> xs(x, 0, n_cols, opt);
  typename ChunkCursor<T>::View xv;
  std::vector<T> ablk;
  while (xs.next(xv)) {
    ablk.resize(xv.count);
    for (uint64_t r = r0; r < r1; ++r) {
      const Status st = A.get_range(r * n_cols + xv.first, std::span<T>(ablk));
      DARRAY_ASSERT(st == Status::kOk);
      T acc{};
      for (uint64_t k = 0; k < xv.count; ++k) acc += ablk[k] * xv.data[k];
      yb[r - r0] += alpha * acc;
    }
  }
  if (r1 > r0) y.set_range(r0, std::span<const T>(yb));
  detail::barrier(cl, self, seq);
}

}  // namespace darray::compute
