// Per-node mailbox for reduction-tree partials (src/compute collectives).
//
// A collective's partial results travel as kReducePart protocol messages,
// which the node's engine pass deposits here. Application threads block in
// await() until the matching part lands. One board per node: engine passes
// are producers, the node's collective caller is the consumer, and the
// (seq, src, frag) key makes every deposit unambiguous — a node receives at
// most one message per sender per fragment per collective (up-contributions
// come from children, the broadcast comes from the parent, and the child and
// parent sets of a binomial tree are disjoint).
//
// Sequence numbers come from next_seq(): collectives are SPMD (every node
// calls them in the same order), so the per-node counters agree without any
// cross-node coordination. A plain mutex + condvar is deliberate — reduction
// traffic is a handful of small messages per collective, nowhere near a rate
// where the engine passes' brief producer-side critical section matters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/assert.hpp"
#include "net/payload_buf.hpp"

namespace darray::rt {

class ReduceBoard {
 public:
  struct Part {
    uint64_t bits = 0;        // hdr.addr: scalar partial (raw element bits)
    uint32_t frags = 1;       // hdr.aux: fragment count of this transfer
    net::PayloadBuf payload;  // deterministic mode: per-chunk partial entries
  };

  // Next collective sequence number for this node (see SPMD note above).
  uint32_t next_seq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  static uint64_t key(uint32_t seq, uint32_t src, uint32_t frag = 0) {
    DARRAY_ASSERT(src < 256 && frag < (1u << 24));
    return (uint64_t{seq} << 32) | (uint64_t{frag} << 8) | src;
  }

  // Producer side (engine passes): deposit one part and wake waiters.
  void deliver(uint64_t k, Part part) {
    {
      std::lock_guard lk(mu_);
      const bool inserted = parts_.emplace(k, std::move(part)).second;
      DARRAY_ASSERT_MSG(inserted, "duplicate reduce part for the same key");
    }
    cv_.notify_all();
  }

  // Consumer side (the node's collective caller): block until the part keyed
  // by `k` arrives, then take ownership of it.
  Part await(uint64_t k) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return parts_.contains(k); });
    auto it = parts_.find(k);
    Part p = std::move(it->second);
    parts_.erase(it);
    return p;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Part> parts_;
  std::atomic<uint32_t> seq_{0};
};

}  // namespace darray::rt
