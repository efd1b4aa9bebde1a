// Per-node state of one distributed array: the local subarray, the dentry per
// chunk, and the protocol control block per chunk (home directory fields +
// requester-side bookkeeping). Control blocks are touched only by the node's
// engine passes, one at a time under the engine lock, so they need no
// internal synchronisation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/node_mask.hpp"
#include "net/message.hpp"
#include "rdma/verbs.hpp"
#include "runtime/array_meta.hpp"
#include "runtime/cache_region.hpp"
#include "runtime/dentry.hpp"
#include "runtime/types.hpp"

namespace darray::rt {

// A request a home chunk must process: either a remote protocol message or a
// local application miss.
struct PendingReq {
  LocalRequest* local = nullptr;  // set for local requests
  net::RpcMessage msg;            // set for remote requests
  bool is_local() const { return local != nullptr; }
};

struct ChunkCtl {
  // --- home-side directory (valid only on the chunk's home node) ------------
  GlobalState g = GlobalState::kUnshared;
  NodeMask sharers;          // remote readers (home's own R is implicit)
  NodeId owner = kNoNode;    // Dirty owner
  uint16_t g_op = kNoOp;     // Operated operator id
  NodeMask op_nodes;         // remote Operated participants

  // Per-chunk transaction serialisation: while busy, new requests queue.
  bool busy = false;
  NodeMask awaiting;              // nodes whose ack/data/flush is pending
  bool self_drain_pending = false;
  bool wb_voluntary = false;      // fetch answered by a voluntary writeback
  std::function<void()> txn_then;
  std::deque<PendingReq> waiting;

  // --- requester side (valid on non-home nodes) ------------------------------
  std::vector<LocalRequest*> parked;  // signalled when the next fill lands
  bool outstanding = false;           // one request to home at a time
  bool combine_valid = false;         // unflushed operands in line->combine
  CacheLine* line = nullptr;
};

struct NodeArrayState {
  const ArrayMeta* meta = nullptr;
  std::unique_ptr<std::byte[]> subarray;
  rdma::MemoryRegion subarray_mr;
  std::vector<Dentry> dentries;  // n_chunks
  std::vector<ChunkCtl> ctl;     // n_chunks

  std::byte* chunk_data(ChunkId c) const {
    // Valid only for chunks homed on this node.
    const uint64_t elem0 = c * meta->chunk_elems;
    return subarray.get() + (elem0 - meta->elem_begin[node]) * meta->elem_size;
  }

  NodeId node = 0;
};

}  // namespace darray::rt
