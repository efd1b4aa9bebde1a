// Distributed key-value store on the distributed-array abstraction (paper
// §5.2, Fig. 11): an entry array partitioned into buckets of 15 entries plus
// an overflow pointer, and a byte array managed by a Memcached-style slab
// allocator. Each 8-byte entry packs an 8-bit tag, 16-bit size and 40-bit
// offset. Writers (put/erase) hold the main bucket's distributed write lock;
// readers (get/contains) take no lock: they validate the bucket's version, a
// seqlock kept in the high bits of the main bucket's overflow slot, and fall
// back to the read lock only after a few failed validations.
//
// The implementation is templated over the array type so the DArray-based
// KVS and the GAM-based KVS (the paper's comparison pair, Fig. 17) share all
// logic and differ only in the underlying memory system:
//   using DKvs   = BasicKvs<DArray>;
//   using GamKvs = BasicKvs<gam::GamArray>;
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/gam/gam_array.hpp"
#include "core/darray.hpp"
#include "kvs/slab_allocator.hpp"

namespace darray::kvs {

struct KvsConfig {
  uint64_t n_main_buckets = 1 << 12;
  uint64_t n_overflow_buckets = 1 << 10;
  uint64_t byte_capacity = 32ull << 20;  // whole-cluster value storage
};

inline uint64_t fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

template <template <typename> class ArrayT>
class BasicKvs {
 public:
  static constexpr uint32_t kSlots = 16;             // 15 entries + overflow ptr
  static constexpr uint32_t kEntriesPerBucket = 15;  // paper §5.2
  // A bucket's overflow slot holds `next + 1` (0 = end of chain) in its low
  // kNextBits bits. A main bucket's slot also holds the chain's 24-bit
  // version above them: odd while a writer is inside, bumped on entry and
  // exit. Keeping it there, not in a separate array, keeps the version in
  // the same chunk as the entries it guards.
  static constexpr uint32_t kNextBits = 40;
  static constexpr uint64_t kNextMask = (1ull << kNextBits) - 1;
  static constexpr uint64_t kVersionOne = 1ull << kNextBits;
  // Failed validations (odd or changed version) before a reader probes under
  // the read lock instead, so a write storm cannot starve it.
  static constexpr uint32_t kOptimisticReads = 4;

  static BasicKvs create(rt::Cluster& cluster, const KvsConfig& cfg = {}) {
    BasicKvs k;
    k.impl_ = std::make_shared<Impl>();
    Impl& im = *k.impl_;
    im.cfg = cfg;
    const uint64_t total_buckets = cfg.n_main_buckets + cfg.n_overflow_buckets;
    im.entries = ArrayT<uint64_t>::create(cluster, total_buckets * kSlots);
    im.bytes = ArrayT<uint8_t>::create(cluster, cfg.byte_capacity);

    // One slab allocator per node over its local range of the byte array, and
    // an even split of the overflow bucket space.
    const uint32_t nodes = cluster.num_nodes();
    im.byte_begin.resize(nodes + 1);
    for (uint32_t i = 0; i < nodes; ++i) im.byte_begin[i] = im.bytes.local_begin(i);
    im.byte_begin[nodes] = cfg.byte_capacity;
    for (uint32_t i = 0; i < nodes; ++i) {
      im.slabs.push_back(std::make_unique<SlabAllocator>(
          im.bytes.local_begin(i), im.bytes.local_end(i) - im.bytes.local_begin(i)));
      im.overflow_next.push_back(std::make_unique<std::atomic<uint64_t>>(
          cfg.n_main_buckets + cfg.n_overflow_buckets * i / nodes));
      im.overflow_limit.push_back(cfg.n_main_buckets +
                                  cfg.n_overflow_buckets * (i + 1) / nodes);
    }
    return k;
  }

  // Serving affinity for a key: the node whose partition holds the key's main
  // bucket. Deterministic per key, so the serve layer (src/serve) can route
  // every request for a key to one dispatcher — which is what makes the
  // owner-side hot-key cache coherent (the owner is the single write point
  // for serve-path traffic).
  rt::NodeId owner_of(std::string_view key) const {
    const Impl& im = *impl_;
    const uint64_t lock_idx = (fnv1a(key) % im.cfg.n_main_buckets) * kSlots;
    const uint32_t nodes = static_cast<uint32_t>(im.slabs.size());
    for (uint32_t n = 0; n < nodes; ++n)
      if (lock_idx < im.entries.local_end(n)) return n;
    return nodes - 1;
  }

  // NOTE: put/get/contains/erase below are the storage-engine internals.
  // put/erase run under the main bucket's write lock and hold its version
  // odd while they change the chain; get/contains read the chain without a
  // lock and retry if the version moved (see read_chain).
  // Application traffic goes through darray::Client (src/serve), which adds
  // sessions, admission control, typed Status results, and hot-key caching;
  // calling these directly bypasses all of that (and, for hot keys, the
  // owner-side read-lease invalidation). kvs_demo and fig17 migrated to the
  // Client path; only the serve dispatcher and unit tests call these now.

  // Insert or update. Returns false when the key-value pair is too large or
  // value/overflow space is exhausted.
  bool put(std::string_view key, std::string_view value) {
    Impl& im = *impl_;
    const uint64_t blob_len = 2 + key.size() + value.size();
    if (key.size() > 0xffff || blob_len > 0xffff) return false;

    const uint64_t h = fnv1a(key);
    const uint64_t main_bucket = h % im.cfg.n_main_buckets;
    const uint8_t tag = tag_of(h);

    // Write the blob first (outside the bucket lock: the entry is the commit
    // point), allocated from the caller's node for locality.
    const rt::NodeId me = this_thread_ctx().node;
    const uint64_t offset = im.slabs[me]->allocate(static_cast<uint32_t>(blob_len));
    if (offset == kNullOffset) return false;
    write_blob(offset, key, value);

    begin_write(main_bucket);
    uint64_t bucket = main_bucket;
    int64_t empty_slot = -1;  // first free slot seen while probing the chain
    for (;;) {
      for (uint32_t s = 0; s < kEntriesPerBucket; ++s) {
        const uint64_t idx = bucket * kSlots + s;
        const uint64_t entry = im.entries.get(idx);
        if (entry == 0) {
          if (empty_slot < 0) empty_slot = static_cast<int64_t>(idx);
          continue;
        }
        if (entry_tag(entry) != tag) continue;
        if (key_matches(entry, key)) {
          // Update in place: free the old blob, commit the new entry.
          free_blob(entry);
          im.entries.set(idx, encode(tag, blob_len, offset));
          end_write(main_bucket);
          return true;
        }
      }
      const uint64_t next = next_of(bucket);
      if (next == 0) break;
      bucket = next - 1;
    }

    if (empty_slot < 0) {
      // Chain full: link a fresh overflow bucket and take its first slot.
      const uint64_t ob = alloc_overflow_bucket(me);
      if (ob == kNullOffset) {
        end_write(main_bucket);
        im.slabs[me]->free(offset, static_cast<uint32_t>(blob_len));
        return false;
      }
      // The link keeps the slot's version bits (set on the main bucket only).
      const uint64_t link = bucket * kSlots + kSlots - 1;
      im.entries.set(link, (im.entries.get(link) & ~kNextMask) | (ob + 1));
      empty_slot = static_cast<int64_t>(ob * kSlots);
    }
    im.entries.set(static_cast<uint64_t>(empty_slot), encode(tag, blob_len, offset));
    end_write(main_bucket);
    return true;
  }

  // Lookup (paper Fig. 11). Returns the value, or nullopt when absent.
  std::optional<std::string> get(std::string_view key) {
    const uint64_t h = fnv1a(key);
    const uint8_t tag = tag_of(h);
    return read_chain(h % impl_->cfg.n_main_buckets, [&](uint64_t main_bucket) {
      std::optional<std::string> result;
      probe_chain(main_bucket, [&](uint64_t entry) {
        if (entry_tag(entry) == tag) result = read_if_match(entry, key);
        return result.has_value();
      });
      return result;
    });
  }

  // Existence probe: like get() but transfers only the key bytes for
  // comparison, never the value.
  bool contains(std::string_view key) {
    const uint64_t h = fnv1a(key);
    const uint8_t tag = tag_of(h);
    return read_chain(h % impl_->cfg.n_main_buckets, [&](uint64_t main_bucket) {
      bool found = false;
      probe_chain(main_bucket, [&](uint64_t entry) {
        return found = entry_tag(entry) == tag && key_matches(entry, key);
      });
      return found;
    });
  }

  // Remove a key. Returns false when absent.
  bool erase(std::string_view key) {
    Impl& im = *impl_;
    const uint64_t h = fnv1a(key);
    const uint64_t main_bucket = h % im.cfg.n_main_buckets;
    const uint8_t tag = tag_of(h);

    begin_write(main_bucket);
    bool erased = false;
    uint64_t bucket = main_bucket;
    for (;;) {
      for (uint32_t s = 0; s < kEntriesPerBucket; ++s) {
        const uint64_t idx = bucket * kSlots + s;
        const uint64_t entry = im.entries.get(idx);
        if (entry == 0 || entry_tag(entry) != tag) continue;
        if (key_matches(entry, key)) {
          free_blob(entry);
          im.entries.set(idx, 0);
          erased = true;
          break;
        }
      }
      if (erased) break;
      const uint64_t next = next_of(bucket);
      if (next == 0) break;
      bucket = next - 1;
    }
    end_write(main_bucket);
    return erased;
  }

  uint64_t bytes_in_use() const {
    uint64_t total = 0;
    for (const auto& s : impl_->slabs) total += s->bytes_in_use();
    return total;
  }

 private:
  struct Impl {
    KvsConfig cfg;
    ArrayT<uint64_t> entries;
    ArrayT<uint8_t> bytes;
    std::vector<std::unique_ptr<SlabAllocator>> slabs;
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> overflow_next;
    std::vector<uint64_t> overflow_limit;
    std::vector<uint64_t> byte_begin;
  };

  static uint8_t tag_of(uint64_t h) { return static_cast<uint8_t>((h >> 56) | 0x01); }

  static uint64_t encode(uint8_t tag, uint64_t size, uint64_t offset) {
    DARRAY_ASSERT(offset < (1ull << 40));
    return (uint64_t{tag} << 56) | (size << 40) | offset;
  }
  static uint8_t entry_tag(uint64_t e) { return static_cast<uint8_t>(e >> 56); }
  static uint32_t entry_size(uint64_t e) { return static_cast<uint32_t>((e >> 40) & 0xffff); }
  static uint64_t entry_offset(uint64_t e) { return e & ((1ull << 40) - 1); }

  uint64_t next_of(uint64_t bucket) const {
    return impl_->entries.get(bucket * kSlots + kSlots - 1) & kNextMask;
  }

  // Writer side of the bucket seqlock. begin_write takes the main bucket's
  // write lock and makes its version odd; end_write makes it even again and
  // unlocks. Every path out of a write section goes through end_write. The
  // release fences order the odd version before the chain's stores, and
  // those before the even version.
  void begin_write(uint64_t main_bucket) {
    Impl& im = *impl_;
    const uint64_t vslot = main_bucket * kSlots + kSlots - 1;
    im.entries.wlock(main_bucket * kSlots);
    im.entries.set(vslot, im.entries.get(vslot) + kVersionOne);
    std::atomic_thread_fence(std::memory_order_release);
  }

  void end_write(uint64_t main_bucket) {
    Impl& im = *impl_;
    const uint64_t vslot = main_bucket * kSlots + kSlots - 1;
    std::atomic_thread_fence(std::memory_order_release);
    im.entries.set(vslot, im.entries.get(vslot) + kVersionOne);
    im.entries.unlock(main_bucket * kSlots);
  }

  // Reader side: run probe(main_bucket) between two reads of the version and
  // keep its result only if the version was even and did not move. A probe
  // may see a chain a writer is changing (a freed or reused blob, a half-
  // linked overflow bucket); every access it makes stays in bounds and is
  // atomic, and validation throws such a result away. After
  // kOptimisticReads failed validations the probe runs under the read lock.
  template <typename Probe>
  auto read_chain(uint64_t main_bucket, Probe&& probe) {
    Impl& im = *impl_;
    const uint64_t vslot = main_bucket * kSlots + kSlots - 1;
    for (uint32_t tries = 0; tries < kOptimisticReads; ++tries) {
      const uint64_t before = im.entries.get(vslot);
      std::atomic_thread_fence(std::memory_order_acquire);
      if ((before >> kNextBits) & 1) {  // a writer is inside: let it finish
        std::this_thread::yield();
        continue;
      }
      auto result = probe(main_bucket);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (im.entries.get(vslot) == before) return result;
    }
    im.entries.rlock(main_bucket * kSlots);
    auto result = probe(main_bucket);
    im.entries.unlock(main_bucket * kSlots);
    return result;
  }

  // Walk the chain from `main_bucket`, calling visit(entry) on each used
  // entry until it returns true.
  template <typename Visit>
  void probe_chain(uint64_t main_bucket, Visit&& visit) {
    Impl& im = *impl_;
    for (uint64_t bucket = main_bucket;;) {
      for (uint32_t s = 0; s < kEntriesPerBucket; ++s) {
        const uint64_t entry = im.entries.get(bucket * kSlots + s);
        if (entry != 0 && visit(entry)) return;
      }
      const uint64_t next = next_of(bucket);
      if (next == 0) return;
      bucket = next - 1;
    }
  }

  void write_blob(uint64_t offset, std::string_view key, std::string_view value) {
    Impl& im = *impl_;
    std::vector<uint8_t> blob(2 + key.size() + value.size());
    blob[0] = static_cast<uint8_t>(key.size() & 0xff);
    blob[1] = static_cast<uint8_t>(key.size() >> 8);
    std::memcpy(blob.data() + 2, key.data(), key.size());
    std::memcpy(blob.data() + 2 + key.size(), value.data(), value.size());
    // A reader may still be copying this range under a version that the put
    // which freed it has since bumped: fence so that a reader which sees
    // these bytes also sees that bump (read_chain).
    std::atomic_thread_fence(std::memory_order_release);
    const Status st = im.bytes.set_range(offset, std::span<const uint8_t>(blob));
    DARRAY_ASSERT(st == Status::kOk);  // offset comes from the KVS's own slab
  }

  bool key_matches(uint64_t entry, std::string_view key) {
    Impl& im = *impl_;
    const uint32_t size = entry_size(entry);
    if (size < 2 + key.size()) return false;
    std::vector<uint8_t> hdr(2 + key.size());
    const Status st = im.bytes.get_range(entry_offset(entry), std::span<uint8_t>(hdr));
    DARRAY_ASSERT(st == Status::kOk);
    const uint32_t klen = hdr[0] | (uint32_t{hdr[1]} << 8);
    if (klen != key.size()) return false;
    return std::memcmp(hdr.data() + 2, key.data(), key.size()) == 0;
  }

  std::optional<std::string> read_if_match(uint64_t entry, std::string_view key) {
    Impl& im = *impl_;
    const uint32_t size = entry_size(entry);
    std::vector<uint8_t> blob(size);
    const Status st = im.bytes.get_range(entry_offset(entry), std::span<uint8_t>(blob));
    DARRAY_ASSERT(st == Status::kOk);
    if (size < 2) return std::nullopt;
    const uint32_t klen = blob[0] | (uint32_t{blob[1]} << 8);
    if (klen != key.size() || 2 + klen > size) return std::nullopt;
    if (std::memcmp(blob.data() + 2, key.data(), key.size()) != 0) return std::nullopt;
    return std::string(reinterpret_cast<char*>(blob.data()) + 2 + klen, size - 2 - klen);
  }

  void free_blob(uint64_t entry) {
    Impl& im = *impl_;
    const uint64_t off = entry_offset(entry);
    // Find the owning node's allocator by the byte-array partition.
    auto it = std::upper_bound(im.byte_begin.begin(), im.byte_begin.end(), off);
    const size_t owner = static_cast<size_t>(it - im.byte_begin.begin() - 1);
    im.slabs[owner]->free(off, entry_size(entry));
  }

  uint64_t alloc_overflow_bucket(rt::NodeId me) {
    Impl& im = *impl_;
    const size_t nodes = im.overflow_next.size();
    // Prefer the local quota, then steal from other nodes' quotas.
    for (size_t k = 0; k < nodes; ++k) {
      const size_t n = (me + k) % nodes;
      const uint64_t b = im.overflow_next[n]->fetch_add(1, std::memory_order_relaxed);
      if (b < im.overflow_limit[n]) return b;
      im.overflow_next[n]->store(im.overflow_limit[n], std::memory_order_relaxed);
    }
    return kNullOffset;
  }

  std::shared_ptr<Impl> impl_;
};

using DKvs = BasicKvs<DArray>;
using GamKvs = BasicKvs<gam::GamArray>;

}  // namespace darray::kvs
