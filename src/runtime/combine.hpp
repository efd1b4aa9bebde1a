// Lock-free application of a registered operator to an element (CAS loop).
//
// Correctness leans on the operator contract: associativity + commutativity
// make "combine locally, reduce at home, in any order" equivalent to a single
// serialised sequence (paper Eq. 1). The CAS loop only needs per-element
// atomicity, which restricts Operate to elements of 1/2/4/8 bytes.
#pragma once

#include <atomic>
#include <cstring>

#include "common/assert.hpp"
#include "runtime/types.hpp"

namespace darray::rt {

namespace detail {

template <typename U>
inline void atomic_apply_int(std::byte* addr, const OpDesc& op, const void* operand) {
  std::atomic_ref<U> ref(*reinterpret_cast<U*>(addr));
  U old = ref.load(std::memory_order_relaxed);
  for (;;) {
    U next = old;
    op.fn(&next, operand);
    if (ref.compare_exchange_weak(old, next, std::memory_order_acq_rel,
                                  std::memory_order_relaxed))
      return;
    // old reloaded by CAS failure; retry with the fresh value.
  }
}

}  // namespace detail

// Apply op to the element at `addr` (element of op.elem_size bytes, naturally
// aligned). Safe against concurrent atomic_apply on the same element.
inline void atomic_apply(std::byte* addr, const OpDesc& op, const void* operand) {
  DARRAY_ASSERT((reinterpret_cast<uintptr_t>(addr) & (op.elem_size - 1)) == 0);
  switch (op.elem_size) {
    case 1: detail::atomic_apply_int<uint8_t>(addr, op, operand); return;
    case 2: detail::atomic_apply_int<uint16_t>(addr, op, operand); return;
    case 4: detail::atomic_apply_int<uint32_t>(addr, op, operand); return;
    case 8: detail::atomic_apply_int<uint64_t>(addr, op, operand); return;
    default: DARRAY_UNREACHABLE("Operate supports 1/2/4/8-byte elements only");
  }
}

// Element-granular atomic load/store (relaxed): application fast paths, the
// runtime's perform-at-grant path, and atomic_apply may all touch the same
// element concurrently, so every element access goes through atomics.
inline uint64_t atomic_load_elem(const std::byte* addr, uint32_t elem_size) {
  switch (elem_size) {
    case 1: return std::atomic_ref<const uint8_t>(*reinterpret_cast<const uint8_t*>(addr))
                .load(std::memory_order_relaxed);
    case 2: return std::atomic_ref<const uint16_t>(*reinterpret_cast<const uint16_t*>(addr))
                .load(std::memory_order_relaxed);
    case 4: return std::atomic_ref<const uint32_t>(*reinterpret_cast<const uint32_t*>(addr))
                .load(std::memory_order_relaxed);
    case 8: return std::atomic_ref<const uint64_t>(*reinterpret_cast<const uint64_t*>(addr))
                .load(std::memory_order_relaxed);
    default: DARRAY_UNREACHABLE("elements are 1/2/4/8 bytes");
  }
}

inline void atomic_store_elem(std::byte* addr, uint32_t elem_size, uint64_t bits) {
  switch (elem_size) {
    case 1:
      std::atomic_ref<uint8_t>(*reinterpret_cast<uint8_t*>(addr))
          .store(static_cast<uint8_t>(bits), std::memory_order_relaxed);
      return;
    case 2:
      std::atomic_ref<uint16_t>(*reinterpret_cast<uint16_t*>(addr))
          .store(static_cast<uint16_t>(bits), std::memory_order_relaxed);
      return;
    case 4:
      std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t*>(addr))
          .store(static_cast<uint32_t>(bits), std::memory_order_relaxed);
      return;
    case 8:
      std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(addr))
          .store(bits, std::memory_order_relaxed);
      return;
    default: DARRAY_UNREACHABLE("elements are 1/2/4/8 bytes");
  }
}

// Bulk copies between array memory and a private buffer (get_range /
// set_range). The array side is touched only through relaxed atomics, a word
// at a time where the array address is 8-byte aligned: a version-validated
// reader (the KVS's lock-free get) may copy bytes that a writer on the same
// node is storing, and that copy must be race-free even though validation
// then discards it.
inline void atomic_copy_out(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i < n && (reinterpret_cast<uintptr_t>(src + i) & 7) != 0; ++i)
    dst[i] = std::atomic_ref<const std::byte>(src[i]).load(std::memory_order_relaxed);
  for (; i + 8 <= n; i += 8) {
    const uint64_t w = std::atomic_ref<const uint64_t>(
                           *reinterpret_cast<const uint64_t*>(src + i))
                           .load(std::memory_order_relaxed);
    std::memcpy(dst + i, &w, 8);
  }
  for (; i < n; ++i)
    dst[i] = std::atomic_ref<const std::byte>(src[i]).load(std::memory_order_relaxed);
}

inline void atomic_copy_in(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i < n && (reinterpret_cast<uintptr_t>(dst + i) & 7) != 0; ++i)
    std::atomic_ref<std::byte>(dst[i]).store(src[i], std::memory_order_relaxed);
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, src + i, 8);
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(dst + i))
        .store(w, std::memory_order_relaxed);
  }
  for (; i < n; ++i)
    std::atomic_ref<std::byte>(dst[i]).store(src[i], std::memory_order_relaxed);
}

// --- combine buffer ----------------------------------------------------------
//
// A remote Operated participant accumulates operands per element in a combine
// buffer: chunk_elems u64 slots (element bytes zero-extended) preceded by a
// touched bitmap. Slots are pre-seeded with the operator identity so combining
// is a plain atomic_apply; the bitmap only exists to keep flushes sparse.

struct CombineView {
  std::byte* slots;                 // chunk_elems * 8 bytes
  std::atomic<uint64_t>* bitmap;    // chunk_elems / 64 words
  uint32_t chunk_elems;

  std::byte* slot(uint32_t offset) const { return slots + size_t{offset} * 8; }

  void mark(uint32_t offset) const {
    bitmap[offset >> 6].fetch_or(1ull << (offset & 63), std::memory_order_release);
  }

  bool touched(uint32_t offset) const {
    return (bitmap[offset >> 6].load(std::memory_order_acquire) >> (offset & 63)) & 1;
  }

  // Runtime thread only (no concurrency): reseed identity + clear bitmap.
  void reset(const OpDesc& op) const {
    for (uint32_t i = 0; i < chunk_elems; ++i)
      std::memcpy(slot(i), &op.identity_bits, 8);
    for (uint32_t w = 0; w < chunk_elems / 64; ++w)
      bitmap[w].store(0, std::memory_order_relaxed);
  }
};

// Application-thread side of Operate on a remote participant: fold the
// operand into the combine slot. Slots are u64-wide regardless of elem_size,
// so the CAS is always on 8 bytes; op.fn touches only the low elem_size bytes.
inline void combine_into(const CombineView& cb, uint32_t offset, const OpDesc& op,
                         const void* operand) {
  std::atomic_ref<uint64_t> ref(*reinterpret_cast<uint64_t*>(cb.slot(offset)));
  uint64_t old = ref.load(std::memory_order_relaxed);
  for (;;) {
    uint64_t next = old;
    op.fn(&next, operand);
    if (ref.compare_exchange_weak(old, next, std::memory_order_acq_rel,
                                  std::memory_order_relaxed))
      break;
  }
  cb.mark(offset);
}

}  // namespace darray::rt
