// The coherence engine: one instance per node, implementing the paper's
// extended directory protocol (§4.4, Fig. 9, Table 1) plus cache management
// (§4.2) and the home side of distributed locks.
//
// Concurrency model: one pass at a time runs the engine, under the engine
// lock, on whichever thread took the lock: a submitter running the pass
// inline, or the node's receive-role holder (its progress thread, or an
// application thread waiting on a miss) (engine_shard.hpp).
// The engine therefore runs single-threaded over its chunks and never blocks:
// operations that must wait (dentry drains, invalidation acks, flush
// collection) are parked as continuations and resumed from tick() / message
// arrival. Per-QP FIFO delivery resolves the voluntary-eviction races (see
// DESIGN.md §3).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "net/message.hpp"
#include "runtime/array_state.hpp"
#include "runtime/cache_region.hpp"
#include "runtime/lock_table.hpp"
#include "runtime/stats.hpp"
#include "runtime/types.hpp"

namespace darray::rt {

class NodeRuntime;

class Engine {
 public:
  Engine(NodeRuntime* node, CacheRegion* region);

  // Entry points, called only from a pass under the engine lock.
  void handle_local(LocalRequest* r);
  void handle_rpc(net::RpcMessage m);

  // Advance parked work (drains, deferred allocations, pending cacheline
  // releases, watermark reclaim). Returns true if anything progressed.
  bool tick();

  // Written under the engine lock; read from other threads only for reporting.
  const RuntimeStats& stats() const { return stats_; }

 private:
  // --- normalised request view ----------------------------------------------
  enum class AccessKind : uint8_t { kRead, kWrite, kOperate };

  struct HomeReq {
    AccessKind kind;
    NodeId src;
    uint16_t op = kNoOp;
    uint64_t raddr = 0;  // requester cacheline address (remote src only)
    uint32_t rkey = 0;
    uint64_t trace = 0;  // obs correlation id of the originating op
    PendingReq orig;
  };

  static AccessKind kind_of(const PendingReq& req);
  HomeReq make_home_req(PendingReq req) const;

  // --- home side --------------------------------------------------------------
  void home_submit(NodeArrayState& as, ChunkId c, PendingReq req);
  void home_handle(NodeArrayState& as, ChunkId c, HomeReq req);
  void home_unshared(NodeArrayState& as, ChunkId c, HomeReq req);
  void home_shared(NodeArrayState& as, ChunkId c, HomeReq req);
  void home_dirty(NodeArrayState& as, ChunkId c, HomeReq req);
  void home_operated(NodeArrayState& as, ChunkId c, HomeReq req);
  void maybe_complete_txn(NodeArrayState& as, ChunkId c);
  void pump(NodeArrayState& as, ChunkId c);
  void complete_local(NodeArrayState& as, ChunkId c, const PendingReq& req);
  void perform_access(NodeArrayState& as, ChunkId c, LocalRequest* r);

  // --- requester side ----------------------------------------------------------
  void remote_miss(NodeArrayState& as, ChunkId c, LocalRequest* r);
  void try_issue_remote(NodeArrayState& as, ChunkId c);
  void on_fill(NodeArrayState& as, ChunkId c, const net::RpcMessage& m);
  void on_invalidate(NodeArrayState& as, ChunkId c, const net::RpcMessage& m);
  void on_fetch(NodeArrayState& as, ChunkId c, const net::RpcMessage& m);
  void on_flush_req(NodeArrayState& as, ChunkId c, const net::RpcMessage& m);
  void wake_parked(NodeArrayState& as, ChunkId c);
  void issue_prefetches(const NodeArrayState& as, ChunkId after);

  // --- flush/apply helpers -------------------------------------------------------
  net::PayloadBuf build_flush_payload(const NodeArrayState& as, ChunkId c,
                                      CacheLine* line) const;
  void apply_flush_payload(NodeArrayState& as, ChunkId c, uint16_t op_id,
                           const net::PayloadBuf& payload);
  void send_combine_flush(NodeArrayState& as, ChunkId c, ChunkCtl& ctl, uint16_t op_id,
                          uint64_t trace = 0);

  // --- locks -----------------------------------------------------------------
  void local_lock_acquire(LocalRequest* r);
  void local_lock_release(LocalRequest* r);
  void rpc_lock(const net::RpcMessage& m);
  void deliver_lock_grants(ArrayId array, uint64_t index, std::deque<LockWaiter>& grants);

  // --- cache management --------------------------------------------------------
  size_t reclaim();
  bool try_evict(CacheLine& line, bool watch = false);
  bool watch_lines();

  // --- drains -----------------------------------------------------------------
  void start_drain(Dentry& d, DentryState target, std::function<void()> then);

  // --- messaging ---------------------------------------------------------------
  void send_msg(NodeId dst, net::MsgType type, ArrayId array, ChunkId chunk,
                uint16_t op = kNoOp, uint64_t addr = 0, uint32_t rkey = 0,
                uint32_t aux = 0, uint32_t txn = 0, uint64_t trace = 0,
                net::PayloadBuf payload = {});
  void send_chunk_data(NodeArrayState& as, ChunkId c, NodeId dst, net::MsgType type,
                       uint64_t raddr, uint32_t rkey, uint64_t trace = 0);

  NodeArrayState& state_of(ArrayId id) const;
  bool is_home(const NodeArrayState& as, ChunkId c) const;

  NodeRuntime* node_;
  CacheRegion* region_;
  NodeId self_;

  struct Drain {
    Dentry* dentry;
    std::function<void()> then;
  };
  std::vector<Drain> drains_;
  std::vector<std::pair<ArrayId, ChunkId>> alloc_retry_;

  LockTable locks_;
  std::unordered_map<uint32_t, LocalRequest*> pending_locks_;
  uint32_t next_txn_ = 1;
  RuntimeStats stats_;
};

}  // namespace darray::rt
