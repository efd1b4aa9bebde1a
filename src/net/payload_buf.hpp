// Zero-allocation payload storage for protocol messages.
//
// The Tx/Rx hot path used to heap-allocate a std::vector<std::byte> per
// message (§4.5 makes per-op software overhead the whole ballgame for small
// ops). PayloadBuf removes that: payloads up to kInlineBytes live inside the
// object, larger ones borrow a fixed-size block from a process-wide freelist
// pool, and only payloads beyond the pool's block size fall back to the heap.
// Blocks cross threads freely (allocated in an engine pass or on a progress thread,
// released wherever the message dies), so the freelist is guarded by a
// spinlock — push/pop is a handful of instructions, far below a malloc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace darray::net {

struct PayloadPoolStats {
  uint64_t hits = 0;    // block served from the freelist
  uint64_t misses = 0;  // freelist empty or payload over block size → heap
};

// Process-wide pool counters (monotonic; read for stats/benches).
PayloadPoolStats payload_pool_stats();

// Internal: pool block size — payloads above this heap-allocate (a miss).
// Sized for the largest default protocol payload (a full-chunk OpFlush of
// 512 entries × 16 B) with headroom for larger configured chunks.
inline constexpr size_t kPayloadPoolBlockBytes = 16 * 1024;

std::byte* payload_pool_acquire();       // always returns a block (heap on miss)
void payload_pool_release(std::byte* p); // freelist capped; overflow is deleted

class PayloadBuf {
 public:
  // Inline capacity: covers acks, lock traffic, and small OpFlush batches
  // (7 entries) without touching the pool.
  static constexpr size_t kInlineBytes = 112;

  PayloadBuf() = default;
  explicit PayloadBuf(size_t n) { resize(n); }

  PayloadBuf(PayloadBuf&& o) noexcept { steal(o); }
  PayloadBuf& operator=(PayloadBuf&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  // Deep copy (vector semantics): a few protocol paths keep a message while
  // forwarding it.
  PayloadBuf(const PayloadBuf& o) { assign(o.data(), o.size_); }
  PayloadBuf& operator=(const PayloadBuf& o) {
    if (this != &o) {
      size_ = 0;
      assign(o.data(), o.size_);
    }
    return *this;
  }
  ~PayloadBuf() { release(); }

  std::byte* data() { return block_ ? block_ : inline_; }
  const std::byte* data() const { return block_ ? block_ : inline_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::byte& operator[](size_t i) { return data()[i]; }
  std::byte operator[](size_t i) const { return data()[i]; }

  // Grows preserving contents; freshly exposed bytes are zeroed (vector
  // semantics — callers pattern-fill over them).
  void resize(size_t n) {
    reserve(n);
    if (n > size_) std::memset(data() + size_, 0, n - size_);
    size_ = n;
  }

  void assign(const void* p, size_t n) {
    reserve(n);
    if (n) std::memcpy(data(), p, n);
    size_ = n;
  }

  void append(const void* p, size_t n) {
    reserve(size_ + n);
    std::memcpy(data() + size_, p, n);
    size_ += n;
  }

  void clear() {
    release();
    size_ = 0;
  }

  friend bool operator==(const PayloadBuf& a, const PayloadBuf& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  void reserve(size_t n) {
    if (n <= cap_) return;
    std::byte* nb;
    size_t ncap;
    if (n <= kPayloadPoolBlockBytes) {
      nb = payload_pool_acquire();
      ncap = kPayloadPoolBlockBytes;
    } else {
      nb = new std::byte[n];
      ncap = n;
    }
    if (size_) std::memcpy(nb, data(), size_);
    release();
    block_ = nb;
    cap_ = ncap;
  }

  void release() {
    if (!block_) return;
    if (cap_ == kPayloadPoolBlockBytes)
      payload_pool_release(block_);
    else
      delete[] block_;
    block_ = nullptr;
    cap_ = kInlineBytes;
  }

  void steal(PayloadBuf& o) {
    size_ = o.size_;
    if (o.block_) {
      block_ = o.block_;
      cap_ = o.cap_;
      o.block_ = nullptr;
      o.cap_ = kInlineBytes;
    } else if (size_) {
      std::memcpy(inline_, o.inline_, size_);
    }
    o.size_ = 0;
  }

  size_t size_ = 0;
  size_t cap_ = kInlineBytes;
  std::byte* block_ = nullptr;  // set iff cap_ > kInlineBytes
  std::byte inline_[kInlineBytes];
};

}  // namespace darray::net
