// Application-thread binding. In a real deployment each process is one node;
// in the simulation an application thread declares which node it runs on via
// bind_thread(). The context also carries the thread's pinned chunks (§4.1
// Pin interface): a pinned chunk holds a dentry reference, so get/set/apply
// on it skip every atomic in the fast path.
#pragma once

#include <array>
#include <cstdint>

#include "common/assert.hpp"
#include "runtime/cluster.hpp"
#include "runtime/dentry.hpp"
#include "runtime/types.hpp"

namespace darray {

struct PinEntry {
  bool valid = false;
  rt::ArrayId array = 0;
  rt::ChunkId chunk = 0;
  std::byte* data = nullptr;
  std::byte* combine = nullptr;               // null on home/Dirty pins
  std::atomic<uint64_t>* bitmap = nullptr;
  rt::DentryState state = rt::DentryState::kInvalid;
  uint16_t op_id = rt::kNoOp;
  rt::Dentry* dentry = nullptr;
};

inline constexpr size_t kMaxPins = 8;

// The chunk of this thread's last demand miss on one array: the §4.2
// read-ahead follows a thread's forward miss stream, not every miss.
struct MissStream {
  bool valid = false;
  rt::ArrayId array = 0;
  rt::ChunkId last = 0;
};

inline constexpr size_t kMaxMissStreams = 4;

struct ThreadCtx {
  rt::Cluster* cluster = nullptr;
  rt::NodeId node = rt::kNoNode;
  std::array<PinEntry, kMaxPins> pins{};
  std::array<MissStream, kMaxMissStreams> streams{};
  uint32_t next_stream = 0;  // round-robin victim when every slot is taken

  // Record a demand miss on `chunk` and report whether it continues this
  // thread's stream on `array`: the previous miss there was 1 to
  // 1 + `depth` chunks behind (the chunks between were read ahead and hit).
  bool continues_stream(rt::ArrayId array, rt::ChunkId chunk, uint32_t depth) {
    MissStream* s = nullptr;
    for (MissStream& m : streams)
      if (m.valid && m.array == array) s = &m;
    if (s == nullptr) {
      s = &streams[next_stream++ % kMaxMissStreams];
      *s = {true, array, chunk};
      return false;
    }
    const bool follows = chunk > s->last && chunk - s->last <= 1 + uint64_t{depth};
    s->last = chunk;
    return follows;
  }

  PinEntry* find_pin(rt::ArrayId array, rt::ChunkId chunk) {
    for (PinEntry& p : pins)
      if (p.valid && p.array == array && p.chunk == chunk) return &p;
    return nullptr;
  }

  PinEntry* free_pin_slot() {
    for (PinEntry& p : pins)
      if (!p.valid) return &p;
    return nullptr;
  }
};

inline ThreadCtx& this_thread_ctx() {
  thread_local ThreadCtx ctx;
  return ctx;
}

// Declare that the calling thread is an application thread of `node`.
inline void bind_thread(rt::Cluster& cluster, rt::NodeId node) {
  DARRAY_ASSERT(node < cluster.num_nodes());
  ThreadCtx& ctx = this_thread_ctx();
  ctx.cluster = &cluster;
  ctx.node = node;
  ctx.streams = {};  // miss streams of an earlier binding describe other arrays
}

}  // namespace darray
