// Core identifiers and the application↔runtime request vocabulary.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/config.hpp"
#include "common/wait.hpp"

namespace darray::rt {

using ::darray::ClusterConfig;

using NodeId = uint32_t;
using ArrayId = uint16_t;
using ChunkId = uint64_t;

inline constexpr NodeId kNoNode = ~0u;
inline constexpr uint16_t kNoOp = 0xffff;

// Local permission state of a chunk on one node, kept in its dentry. The
// paper's directory tracks "the state of data in both local subarray and
// cache at the chunk granularity"; pending states are the intermediate states
// of §4.2 footnote 4 (waiting for another node's reply).
enum class DentryState : uint8_t {
  kInvalid = 0,
  kRead,            // may Read
  kWrite,           // exclusive here: may Read/Write/Operate
  kOperated,        // may Operate with the dentry's op_id only
  kPendingRead,     // fill in flight
  kPendingWrite,
  kPendingOperate,
};
inline constexpr size_t kNumDentryStates = 7;

// Stats-plane names, indexed by DentryState ("coherence.enter_<name>").
inline const char* dentry_state_name(DentryState s) {
  switch (s) {
    case DentryState::kInvalid: return "invalid";
    case DentryState::kRead: return "read";
    case DentryState::kWrite: return "write";
    case DentryState::kOperated: return "operated";
    case DentryState::kPendingRead: return "pending_read";
    case DentryState::kPendingWrite: return "pending_write";
    case DentryState::kPendingOperate: return "pending_operate";
  }
  return "?";
}

inline bool dentry_readable(DentryState s) {
  return s == DentryState::kRead || s == DentryState::kWrite;
}
inline bool dentry_writable(DentryState s) { return s == DentryState::kWrite; }

// Directory (home-side) state of a chunk: Table 1 of the paper.
enum class GlobalState : uint8_t {
  kUnshared = 0,  // home alone: R/W/O at home
  kShared,        // home + sharers: R everywhere
  kDirty,         // one non-home owner: R/W there, nothing at home
  kOperated,      // all participants: O (same op) everywhere, merged at home
};

enum class PinMode : uint8_t { kRead = 0, kWrite = 1, kOperate = 2 };

// A slow-path request an application thread parks on (Fig. 2 local-req
// queue). The requester owns the storage (stack). For data accesses
// (kRead/kWrite/kOperate) the runtime PERFORMS the access itself at grant
// time, inside its exclusive window — this guarantees one miss completes in
// one grant, which a "wake and retry" scheme cannot (the permission can be
// revoked again before the woken thread is scheduled, livelocking under
// cross-node contention). For kPin the runtime acquires the chunk reference
// on the requester's behalf and reports the granted state.
struct LocalRequest {
  enum class Kind : uint8_t {
    kRead,
    kWrite,
    kOperate,
    kPin,
    kLockAcq,
    kLockRel,
    kPrefetch,  // runtime-internal, heap-owned, no completion
  };

  Kind kind = Kind::kRead;
  PinMode pin_mode = PinMode::kRead;
  uint8_t lock_write = 0;  // 1 = writer lock
  // Demand read (or read pin) that continues its thread's forward miss
  // stream: the runtime reads ahead after it (§4.2).
  bool stream = false;
  ArrayId array = 0;
  uint16_t op_id = kNoOp;
  ChunkId chunk = 0;
  uint64_t index = 0;   // element index
  uint64_t operand = 0; // in: value bits for kWrite/kOperate; out: kRead result
  uint64_t trace_id = 0;  // obs correlation id of the originating API op
  DentryState granted = DentryState::kInvalid;  // out: kPin
  Completion done;
};

// A registered Operate operator (§4.3). `fn` must be associative and
// commutative over the element type; `identity_bits` seed combine buffers
// (e.g. 0 for add, +inf bits for min).
struct OpDesc {
  std::function<void(void* acc, const void* operand)> fn;
  uint64_t identity_bits = 0;
  uint32_t elem_size = 8;
};

}  // namespace darray::rt
