#include "runtime/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"
#include "runtime/combine.hpp"
#include "runtime/node.hpp"

namespace darray::rt {

using net::MsgType;

Engine::Engine(NodeRuntime* node, CacheRegion* region)
    : node_(node), region_(region), self_(node->id()) {}

NodeArrayState& Engine::state_of(ArrayId id) const {
  NodeArrayState* st = node_->array_state(id);
  DARRAY_ASSERT_MSG(st != nullptr, "message for unknown array");
  return *st;
}

bool Engine::is_home(const NodeArrayState& as, ChunkId c) const {
  return as.meta->home_of_chunk(c) == self_;
}

Engine::AccessKind Engine::kind_of(const PendingReq& req) {
  if (req.is_local()) {
    switch (req.local->kind) {
      case LocalRequest::Kind::kRead:
      case LocalRequest::Kind::kPrefetch:
        return AccessKind::kRead;
      case LocalRequest::Kind::kWrite:
        return AccessKind::kWrite;
      case LocalRequest::Kind::kOperate:
        return AccessKind::kOperate;
      case LocalRequest::Kind::kPin:
        switch (req.local->pin_mode) {
          case PinMode::kRead: return AccessKind::kRead;
          case PinMode::kWrite: return AccessKind::kWrite;
          case PinMode::kOperate: return AccessKind::kOperate;
        }
        DARRAY_UNREACHABLE("bad pin mode");
      default:
        DARRAY_UNREACHABLE("not an access request");
    }
  }
  switch (req.msg.hdr.type) {
    case MsgType::kReadReq: return AccessKind::kRead;
    case MsgType::kWriteReq: return AccessKind::kWrite;
    case MsgType::kOperateReq: return AccessKind::kOperate;
    default: DARRAY_UNREACHABLE("not an access message");
  }
}

Engine::HomeReq Engine::make_home_req(PendingReq req) const {
  HomeReq h;
  h.kind = kind_of(req);
  if (req.is_local()) {
    h.src = self_;
    h.op = req.local->op_id;
    h.trace = req.local->trace_id;
  } else {
    h.src = req.msg.hdr.src_node;
    h.op = req.msg.hdr.op_id;
    h.raddr = req.msg.hdr.addr;
    h.rkey = req.msg.hdr.rkey;
    h.trace = req.msg.hdr.trace;
  }
  h.orig = std::move(req);
  return h;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void Engine::handle_local(LocalRequest* r) {
  switch (r->kind) {
    case LocalRequest::Kind::kLockAcq:
      local_lock_acquire(r);
      return;
    case LocalRequest::Kind::kLockRel:
      local_lock_release(r);
      return;
    default:
      break;
  }
  switch (r->kind) {
    case LocalRequest::Kind::kRead: stats_.local_read_misses++; break;
    case LocalRequest::Kind::kWrite: stats_.local_write_misses++; break;
    case LocalRequest::Kind::kOperate: stats_.local_operate_misses++; break;
    case LocalRequest::Kind::kPin:
      switch (r->pin_mode) {
        case PinMode::kRead: stats_.local_read_misses++; break;
        case PinMode::kWrite: stats_.local_write_misses++; break;
        case PinMode::kOperate: stats_.local_operate_misses++; break;
      }
      break;
    case LocalRequest::Kind::kPrefetch:
      // Counted here (not at creation) so the engine's own read-ahead and
      // application-driven prefetch_range() land in the same counter.
      stats_.prefetches_issued++;
      break;
    default: break;
  }
  obs::trace(obs::Ev::kMiss, r->trace_id, static_cast<uint8_t>(r->kind),
             static_cast<uint16_t>(self_), static_cast<uint32_t>(r->chunk), r->index);
  NodeArrayState& as = state_of(r->array);
  const ChunkId c = r->chunk;
  if (is_home(as, c)) {
    if (r->kind == LocalRequest::Kind::kPrefetch) {
      delete r;  // nothing to prefetch for home chunks
      return;
    }
    home_submit(as, c, PendingReq{.local = r, .msg = {}});
  } else {
    remote_miss(as, c, r);
  }
}

void Engine::handle_rpc(net::RpcMessage m) {
  const ChunkId c = m.hdr.chunk;
  switch (m.hdr.type) {
    case MsgType::kReadReq:
    case MsgType::kWriteReq:
    case MsgType::kOperateReq: {
      stats_.remote_reqs++;
      NodeArrayState& as = state_of(m.hdr.array_id);
      DARRAY_ASSERT(is_home(as, c));
      home_submit(as, c, PendingReq{.local = nullptr, .msg = std::move(m)});
      return;
    }
    case MsgType::kInvAck: {
      NodeArrayState& as = state_of(m.hdr.array_id);
      ChunkCtl& ctl = as.ctl[c];
      DARRAY_ASSERT(ctl.busy);
      ctl.awaiting.remove(m.hdr.src_node);
      maybe_complete_txn(as, c);
      return;
    }
    case MsgType::kFetchData: {
      NodeArrayState& as = state_of(m.hdr.array_id);
      ChunkCtl& ctl = as.ctl[c];
      DARRAY_ASSERT_MSG(ctl.busy, "FetchData without a pending fetch");
      ctl.awaiting.remove(m.hdr.src_node);
      maybe_complete_txn(as, c);
      return;
    }
    case MsgType::kWriteback: {
      NodeArrayState& as = state_of(m.hdr.array_id);
      ChunkCtl& ctl = as.ctl[c];
      if (ctl.busy && ctl.awaiting.contains(m.hdr.src_node)) {
        // Voluntary eviction raced with our fetch: the writeback IS the data.
        ctl.wb_voluntary = true;
        ctl.awaiting.remove(m.hdr.src_node);
        maybe_complete_txn(as, c);
        return;
      }
      DARRAY_ASSERT(ctl.g == GlobalState::kDirty && ctl.owner == m.hdr.src_node);
      ctl.g = GlobalState::kUnshared;
      ctl.owner = kNoNode;
      // Data already landed one-sidedly; home regains full permission.
      as.dentries[c].promote(DentryState::kWrite);
      return;
    }
    case MsgType::kOpFlush: {
      stats_.op_flushes_applied++;
      NodeArrayState& as = state_of(m.hdr.array_id);
      ChunkCtl& ctl = as.ctl[c];
      apply_flush_payload(as, c, m.hdr.op_id, m.payload);
      ctl.op_nodes.remove(m.hdr.src_node);
      if (ctl.busy && ctl.awaiting.contains(m.hdr.src_node)) {
        ctl.awaiting.remove(m.hdr.src_node);
        maybe_complete_txn(as, c);
      }
      return;
    }
    case MsgType::kReadData:
    case MsgType::kWriteData:
    case MsgType::kOperateResp:
      stats_.fills++;
      on_fill(state_of(m.hdr.array_id), c, m);
      return;
    case MsgType::kInvalidate:
      stats_.invalidations++;
      on_invalidate(state_of(m.hdr.array_id), c, m);
      return;
    case MsgType::kFetch:
      stats_.fetches++;
      on_fetch(state_of(m.hdr.array_id), c, m);
      return;
    case MsgType::kFlushReq:
      stats_.flush_reqs++;
      on_flush_req(state_of(m.hdr.array_id), c, m);
      return;
    case MsgType::kLockAcq:
    case MsgType::kLockRel:
    case MsgType::kLockGrant:
      rpc_lock(m);
      return;
    case MsgType::kReducePart:
      // Reduction-tree partial (src/compute): the board keys on (seq, src,
      // fragment).
      stats_.reduce_parts_rx++;
      node_->reduce_board().deliver(
          ReduceBoard::key(m.hdr.txn_id, m.hdr.src_node, m.hdr.rkey),
          ReduceBoard::Part{m.hdr.addr, m.hdr.aux, std::move(m.payload)});
      return;
    case MsgType::kClientReq:
    case MsgType::kClientResp:
      // Client-serving plane (src/serve): the front door does its own
      // matching via txn_id (session) and addr (sequence).
      node_->deliver_client_msg(std::move(m));
      return;
    default:
      DARRAY_UNREACHABLE("unexpected message type");
  }
}

bool Engine::tick() {
  bool progressed = region_->tick_pending_releases();

  // Complete drains whose reference counts have drained (Fig. 5 ③/④,
  // resumed asynchronously so this thread never blocks).
  for (size_t i = 0; i < drains_.size(); ++i) {
    if (!drains_[i].dentry) continue;
    if (!drains_[i].dentry->drained()) continue;
    Drain d = std::move(drains_[i]);
    drains_[i].dentry = nullptr;
    d.dentry->finish_drain();
    d.then();  // may append new drains; index loop stays valid
    progressed = true;
  }
  std::erase_if(drains_, [](const Drain& d) { return d.dentry == nullptr; });

  // Retry remote issues that stalled on cacheline allocation (a pass runs
  // when a line they wait for rings: watch_lines).
  if (!alloc_retry_.empty()) {
    auto retry = std::move(alloc_retry_);
    alloc_retry_.clear();
    for (auto [array, chunk] : retry) {
      try_issue_remote(state_of(array), chunk);
    }
    progressed |= alloc_retry_.size() < retry.size();
  }

  // Watermark-driven reclamation (§4.2): refill free lines to high watermark.
  if (region_->below_low_watermark()) progressed |= reclaim() > 0;

  return progressed;
}

// ---------------------------------------------------------------------------
// Home side
// ---------------------------------------------------------------------------

void Engine::home_submit(NodeArrayState& as, ChunkId c, PendingReq req) {
  ChunkCtl& ctl = as.ctl[c];
  if (ctl.busy) {
    ctl.waiting.push_back(std::move(req));
    return;
  }
  home_handle(as, c, make_home_req(std::move(req)));
}

void Engine::complete_local(NodeArrayState& as, ChunkId c, const PendingReq& req) {
  DARRAY_ASSERT(req.is_local());
  perform_access(as, c, req.local);
}

// Execute a granted slow-path access inside the runtime's exclusive window.
// Doing the access here (instead of waking the requester to retry) is what
// guarantees progress: by the time the requester would be scheduled, the
// permission could already have been revoked by the next remote request,
// livelocking hot chunks under cross-node contention.
void Engine::perform_access(NodeArrayState& as, ChunkId c, LocalRequest* r) {
  Dentry& d = as.dentries[c];
  if (r->kind == LocalRequest::Kind::kPrefetch) {
    delete r;
    return;
  }
  if (r->kind == LocalRequest::Kind::kPin) {
    // Acquire the chunk reference on the requester's behalf: held until the
    // application calls unpin(), it blocks every drain (the §4.1 guarantee).
    d.refcnt.fetch_add(1, std::memory_order_acq_rel);
    r->granted = d.state.load(std::memory_order_acquire);
    r->done.signal();
    return;
  }
  const uint32_t esz = as.meta->elem_size;
  const uint32_t off = as.meta->offset_in_chunk(r->index);
  std::byte* base = d.data.load(std::memory_order_acquire);
  DARRAY_ASSERT(base != nullptr);
  switch (r->kind) {
    case LocalRequest::Kind::kRead:
      r->operand = atomic_load_elem(base + size_t{off} * esz, esz);
      break;
    case LocalRequest::Kind::kWrite:
      atomic_store_elem(base + size_t{off} * esz, esz, r->operand);
      break;
    case LocalRequest::Kind::kOperate: {
      const OpDesc& op = node_->cluster().op(r->op_id);
      std::byte* cb = d.combine.load(std::memory_order_acquire);
      if (d.state.load(std::memory_order_acquire) == DentryState::kOperated && cb) {
        CombineView view{cb, d.combine_bitmap.load(std::memory_order_acquire),
                         as.meta->chunk_elems};
        combine_into(view, off, op, &r->operand);
      } else {
        atomic_apply(base + size_t{off} * esz, op, &r->operand);
      }
      break;
    }
    default:
      DARRAY_UNREACHABLE("not a data access");
  }
  r->done.signal();
}

void Engine::home_handle(NodeArrayState& as, ChunkId c, HomeReq req) {
  switch (as.ctl[c].g) {
    case GlobalState::kUnshared: home_unshared(as, c, std::move(req)); return;
    case GlobalState::kShared: home_shared(as, c, std::move(req)); return;
    case GlobalState::kDirty: home_dirty(as, c, std::move(req)); return;
    case GlobalState::kOperated: home_operated(as, c, std::move(req)); return;
  }
}

void Engine::home_unshared(NodeArrayState& as, ChunkId c, HomeReq req) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  if (req.src == self_) {
    // Home already holds R/W/O permission in Unshared — the miss raced with
    // a transition that has since resolved; let the caller retry.
    complete_local(as, c, req.orig);
    return;
  }
  ctl.busy = true;
  switch (req.kind) {
    case AccessKind::kRead:
      // Fig. 9: Unshared → Shared on remote R. Home dentry degrades W → R.
      start_drain(d, DentryState::kRead, [this, &as, c, req = std::move(req)] {
        ChunkCtl& ctl2 = as.ctl[c];
        ctl2.g = GlobalState::kShared;
        ctl2.sharers.add(req.src);
        send_chunk_data(as, c, req.src, MsgType::kReadData, req.raddr, req.rkey, req.trace);
        ctl2.busy = false;
        pump(as, c);
      });
      return;
    case AccessKind::kWrite:
      // Fig. 9: Unshared → Dirty on remote W. Home loses all permission.
      start_drain(d, DentryState::kInvalid, [this, &as, c, req = std::move(req)] {
        ChunkCtl& ctl2 = as.ctl[c];
        ctl2.g = GlobalState::kDirty;
        ctl2.owner = req.src;
        send_chunk_data(as, c, req.src, MsgType::kWriteData, req.raddr, req.rkey, req.trace);
        ctl2.busy = false;
        pump(as, c);
      });
      return;
    case AccessKind::kOperate:
      // Fig. 9: Unshared → Operated on remote O. Home keeps applying locally.
      d.op_id.store(req.op, std::memory_order_release);
      start_drain(d, DentryState::kOperated, [this, &as, c, req = std::move(req)] {
        ChunkCtl& ctl2 = as.ctl[c];
        ctl2.g = GlobalState::kOperated;
        ctl2.g_op = req.op;
        ctl2.op_nodes = NodeMask::single(req.src);
        send_msg(req.src, MsgType::kOperateResp, as.meta->id, c, req.op, 0, 0, 0, 0,
                 req.trace);
        ctl2.busy = false;
        pump(as, c);
      });
      return;
  }
}

void Engine::home_shared(NodeArrayState& as, ChunkId c, HomeReq req) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];

  if (req.kind == AccessKind::kRead) {
    if (req.src == self_) {
      complete_local(as, c, req.orig);  // home can already read in Shared
      return;
    }
    ctl.sharers.add(req.src);
    send_chunk_data(as, c, req.src, MsgType::kReadData, req.raddr, req.rkey, req.trace);
    return;
  }

  // Write or Operate: invalidate every remote sharer except the requester.
  ctl.busy = true;
  ctl.awaiting = ctl.sharers;
  if (req.src != self_) ctl.awaiting.remove(req.src);
  for (NodeId n : ctl.awaiting)
    send_msg(n, MsgType::kInvalidate, as.meta->id, c, kNoOp, 0, 0, 0, 0, req.trace);

  const bool operate = req.kind == AccessKind::kOperate;
  ctl.txn_then = [this, &as, c, req = std::move(req), operate] {
    ChunkCtl& ctl2 = as.ctl[c];
    Dentry& d2 = as.dentries[c];
    ctl2.sharers.clear();
    if (operate) {
      ctl2.g = GlobalState::kOperated;
      ctl2.g_op = req.op;
      ctl2.op_nodes.clear();
      d2.promote(DentryState::kOperated);
      if (req.src == self_) {
        complete_local(as, c, req.orig);
      } else {
        ctl2.op_nodes.add(req.src);
        send_msg(req.src, MsgType::kOperateResp, as.meta->id, c, req.op, 0, 0, 0, 0,
                 req.trace);
      }
    } else if (req.src == self_) {
      ctl2.g = GlobalState::kUnshared;
      d2.promote(DentryState::kWrite);  // Fig. 6: pure promotion, no drain
      complete_local(as, c, req.orig);
    } else {
      ctl2.g = GlobalState::kDirty;
      ctl2.owner = req.src;
      send_chunk_data(as, c, req.src, MsgType::kWriteData, req.raddr, req.rkey, req.trace);
    }
  };

  // Home dentry: readers must finish before ops begin, so R drains to
  // pending-operate, and R → Invalid likewise for a remote write. The home
  // starts applying (pending-operate → Operated) or writing (R → W for a
  // local write) only in txn_then, once every sharer has acked: a kReadData
  // sent to a sharer may still sit in the Tx queue, unposted, and its WRITE
  // reads the home chunk when it is posted, before the kInvalidate queued
  // behind it. The requester itself sent its request after its fill landed.
  if (operate) {
    d.op_id.store(req.op, std::memory_order_release);
    ctl.self_drain_pending = true;
    start_drain(d, DentryState::kPendingOperate, [this, &as, c] {
      as.ctl[c].self_drain_pending = false;
      maybe_complete_txn(as, c);
    });
  } else if (req.src != self_) {
    ctl.self_drain_pending = true;
    start_drain(d, DentryState::kInvalid, [this, &as, c] {
      as.ctl[c].self_drain_pending = false;
      maybe_complete_txn(as, c);
    });
  }
  maybe_complete_txn(as, c);
}

void Engine::home_dirty(NodeArrayState& as, ChunkId c, HomeReq req) {
  ChunkCtl& ctl = as.ctl[c];
  const NodeId prev_owner = ctl.owner;
  // FIFO per QP: had the owner evicted, its Writeback would have arrived (and
  // flipped us to Unshared) before any new request from it.
  DARRAY_ASSERT(req.src != prev_owner);

  ctl.busy = true;
  ctl.awaiting = NodeMask::single(prev_owner);
  ctl.wb_voluntary = false;
  const uint32_t target = req.kind == AccessKind::kRead
                              ? static_cast<uint32_t>(net::FetchTarget::kShared)
                              : static_cast<uint32_t>(net::FetchTarget::kInvalid);
  send_msg(prev_owner, MsgType::kFetch, as.meta->id, c, kNoOp, 0, 0, target, 0, req.trace);

  ctl.txn_then = [this, &as, c, req = std::move(req), prev_owner] {
    ChunkCtl& ctl2 = as.ctl[c];
    Dentry& d2 = as.dentries[c];
    ctl2.owner = kNoNode;
    switch (req.kind) {
      case AccessKind::kRead: {
        ctl2.g = GlobalState::kShared;
        ctl2.sharers.clear();
        if (!ctl2.wb_voluntary) ctl2.sharers.add(prev_owner);  // it kept a copy
        d2.promote(DentryState::kRead);  // home regains read (Fig. 9 Dirty→Shared)
        if (req.src == self_) {
          complete_local(as, c, req.orig);
        } else {
          ctl2.sharers.add(req.src);
          send_chunk_data(as, c, req.src, MsgType::kReadData, req.raddr, req.rkey,
                          req.trace);
        }
        return;
      }
      case AccessKind::kWrite: {
        if (req.src == self_) {
          ctl2.g = GlobalState::kUnshared;
          d2.promote(DentryState::kWrite);
          complete_local(as, c, req.orig);
        } else {
          ctl2.g = GlobalState::kDirty;
          ctl2.owner = req.src;
          send_chunk_data(as, c, req.src, MsgType::kWriteData, req.raddr, req.rkey,
                          req.trace);
        }
        return;
      }
      case AccessKind::kOperate: {
        ctl2.g = GlobalState::kOperated;
        ctl2.g_op = req.op;
        ctl2.op_nodes.clear();
        d2.op_id.store(req.op, std::memory_order_release);
        d2.promote(DentryState::kOperated);
        if (req.src == self_) {
          complete_local(as, c, req.orig);
        } else {
          ctl2.op_nodes.add(req.src);
          send_msg(req.src, MsgType::kOperateResp, as.meta->id, c, req.op, 0, 0, 0, 0,
                   req.trace);
        }
        return;
      }
    }
  };
  maybe_complete_txn(as, c);
}

void Engine::home_operated(NodeArrayState& as, ChunkId c, HomeReq req) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];

  if (req.kind == AccessKind::kOperate && req.op == ctl.g_op) {
    if (req.src == self_) {
      complete_local(as, c, req.orig);  // home dentry is already kOperated
      return;
    }
    ctl.op_nodes.add(req.src);
    send_msg(req.src, MsgType::kOperateResp, as.meta->id, c, req.op, 0, 0, 0, 0, req.trace);
    return;
  }

  // Fig. 9: any R/W (or a different operator) forces Operated → Unshared: the
  // home gathers every participant's combined operands, then retries the
  // request under Unshared.
  ctl.busy = true;
  ctl.awaiting = ctl.op_nodes;
  for (NodeId n : ctl.awaiting)
    send_msg(n, MsgType::kFlushReq, as.meta->id, c, ctl.g_op, 0, 0, 0, 0, req.trace);

  ctl.self_drain_pending = true;
  start_drain(d, DentryState::kInvalid, [this, &as, c] {
    as.ctl[c].self_drain_pending = false;
    maybe_complete_txn(as, c);
  });

  ctl.txn_then = [this, &as, c, req = std::move(req)]() mutable {
    ChunkCtl& ctl2 = as.ctl[c];
    Dentry& d2 = as.dentries[c];
    ctl2.g = GlobalState::kUnshared;
    ctl2.g_op = kNoOp;
    ctl2.op_nodes.clear();
    d2.op_id.store(kNoOp, std::memory_order_release);
    d2.promote(DentryState::kWrite);
    // Re-dispatch the original request against the Unshared state. busy has
    // been cleared by maybe_complete_txn before txn_then runs.
    home_handle(as, c, std::move(req));
  };
  maybe_complete_txn(as, c);
}

void Engine::maybe_complete_txn(NodeArrayState& as, ChunkId c) {
  ChunkCtl& ctl = as.ctl[c];
  if (!ctl.busy || !ctl.awaiting.empty() || ctl.self_drain_pending) return;
  if (!ctl.txn_then) return;
  auto then = std::move(ctl.txn_then);
  ctl.txn_then = nullptr;
  ctl.busy = false;
  then();  // may re-enter home_handle and set busy again
  pump(as, c);
}

void Engine::pump(NodeArrayState& as, ChunkId c) {
  ChunkCtl& ctl = as.ctl[c];
  while (!ctl.busy && !ctl.waiting.empty()) {
    PendingReq req = std::move(ctl.waiting.front());
    ctl.waiting.pop_front();
    home_handle(as, c, make_home_req(std::move(req)));
  }
}

// ---------------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------------

namespace {
bool satisfies(DentryState s, uint16_t cur_op, const LocalRequest& r) {
  const bool operable =
      s == DentryState::kWrite || (s == DentryState::kOperated && cur_op == r.op_id);
  switch (r.kind) {
    case LocalRequest::Kind::kRead:
    case LocalRequest::Kind::kPrefetch:
      return dentry_readable(s);
    case LocalRequest::Kind::kWrite:
      return dentry_writable(s);
    case LocalRequest::Kind::kOperate:
      return operable;
    case LocalRequest::Kind::kPin:
      switch (r.pin_mode) {
        case PinMode::kRead: return dentry_readable(s);
        case PinMode::kWrite: return dentry_writable(s);
        case PinMode::kOperate: return operable;
      }
      return false;
    default:
      return false;
  }
}

// Maps any parked request to the access strength it needs from home.
LocalRequest::Kind access_kind_of(const LocalRequest& r) {
  if (r.kind == LocalRequest::Kind::kPin) {
    switch (r.pin_mode) {
      case PinMode::kRead: return LocalRequest::Kind::kRead;
      case PinMode::kWrite: return LocalRequest::Kind::kWrite;
      case PinMode::kOperate: return LocalRequest::Kind::kOperate;
    }
  }
  if (r.kind == LocalRequest::Kind::kPrefetch) return LocalRequest::Kind::kRead;
  return r.kind;
}
}  // namespace

void Engine::remote_miss(NodeArrayState& as, ChunkId c, LocalRequest* r) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  const DentryState s = d.state.load(std::memory_order_acquire);
  const uint16_t cur_op = d.op_id.load(std::memory_order_acquire);

  if (r->kind == LocalRequest::Kind::kPrefetch) {
    // Prefetch is best-effort: only start a read fill for a cold, idle chunk.
    if (s != DentryState::kInvalid || ctl.outstanding || !ctl.parked.empty()) {
      delete r;
      return;
    }
    ctl.parked.push_back(r);  // reclaimed (deleted) on wake
    try_issue_remote(as, c);
    return;
  }

  if (satisfies(s, cur_op, *r)) {
    perform_access(as, c, r);  // state improved since the fast-path failure
    return;
  }
  ctl.parked.push_back(r);
  if (!ctl.outstanding) try_issue_remote(as, c);
}

void Engine::try_issue_remote(NodeArrayState& as, ChunkId c) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  if (ctl.outstanding || ctl.parked.empty()) return;
  {
    // An issue drain may already be in flight (dentry parked in a pending
    // state while its refcount drains); don't double-issue.
    const DentryState cur = d.state.load(std::memory_order_acquire);
    if (cur == DentryState::kPendingRead || cur == DentryState::kPendingWrite ||
        cur == DentryState::kPendingOperate)
      return;
    // A foreign drain (invalidate / flush-request) may be mid-flight: its
    // continuation will free the cacheline, so issuing against it now would
    // hand the home a dangling fill target. The continuation re-invokes us.
    if (d.delay.load(std::memory_order_acquire)) return;
  }

  // The first *application* request decides what to ask for; others retry on
  // wake. A prefetch leads the list only if nothing else is parked behind it.
  LocalRequest* head = nullptr;
  for (LocalRequest* r : ctl.parked) {
    if (r->kind != LocalRequest::Kind::kPrefetch) {
      head = r;
      break;
    }
  }
  const bool only_prefetch = head == nullptr;
  if (only_prefetch) head = ctl.parked.front();

  if (!ctl.line) {
    CacheLine* line = region_->allocate(as.meta->id, c);
    if (!line) {
      reclaim();
      line = region_->allocate(as.meta->id, c);
    }
    if (!line && !only_prefetch && watch_lines()) line = region_->allocate(as.meta->id, c);
    if (!line) {
      if (only_prefetch) {  // don't stall prefetches on a full cache
        wake_parked(as, c);   // deletes the prefetch request(s)
        return;
      }
      alloc_retry_.emplace_back(as.meta->id, c);
      return;
    }
    ctl.line = line;
  }

  const NodeId home = as.meta->home_of_chunk(c);
  const auto issue = [this, &as, c, home](LocalRequest::Kind kind, uint16_t op,
                                          uint64_t trace) {
    ChunkCtl& ctl2 = as.ctl[c];
    ctl2.outstanding = true;
    const auto dir_req = [&](MsgType type) {
      obs::trace(obs::Ev::kDirReq, trace, static_cast<uint8_t>(type),
                 static_cast<uint16_t>(self_), static_cast<uint32_t>(c), home);
    };
    switch (kind) {
      case LocalRequest::Kind::kRead:
      case LocalRequest::Kind::kPrefetch:
        dir_req(MsgType::kReadReq);
        send_msg(home, MsgType::kReadReq, as.meta->id, c, kNoOp,
                 reinterpret_cast<uint64_t>(ctl2.line->data), region_->data_rkey(), 0, 0,
                 trace);
        return;
      case LocalRequest::Kind::kWrite:
        dir_req(MsgType::kWriteReq);
        send_msg(home, MsgType::kWriteReq, as.meta->id, c, kNoOp,
                 reinterpret_cast<uint64_t>(ctl2.line->data), region_->data_rkey(), 0, 0,
                 trace);
        return;
      case LocalRequest::Kind::kOperate:
        dir_req(MsgType::kOperateReq);
        send_msg(home, MsgType::kOperateReq, as.meta->id, c, op, 0, 0, 0, 0, trace);
        return;
      default:
        DARRAY_UNREACHABLE("bad issue kind");
    }
  };

  const DentryState s = d.state.load(std::memory_order_acquire);
  const auto kind = access_kind_of(*head);
  const DentryState pending = kind == LocalRequest::Kind::kWrite
                                  ? DentryState::kPendingWrite
                              : kind == LocalRequest::Kind::kOperate
                                  ? DentryState::kPendingOperate
                                  : DentryState::kPendingRead;
  const auto op = head->op_id;
  const uint64_t trace = head->trace_id;
  if (s == DentryState::kInvalid) {
    d.promote(pending);  // nothing accessible: no drain needed
    issue(kind, op, trace);
  } else {
    // Upgrade (kRead → W/O) or conversion out of kOperated: drain current
    // accessors first, then ask home.
    start_drain(d, pending, [issue, kind, op, trace] { issue(kind, op, trace); });
  }

  // Demand reads (and read pins) that continue their thread's sequential
  // miss stream read ahead; random misses and prefetch-initiated fills don't.
  if (head->stream) issue_prefetches(as, c);
}

void Engine::issue_prefetches(const NodeArrayState& as, ChunkId after) {
  const uint32_t n = node_->cluster().config().prefetch_chunks;
  for (uint32_t i = 1; i <= n; ++i) {
    const ChunkId c2 = after + i;
    if (c2 >= as.meta->n_chunks) return;
    if (as.meta->home_of_chunk(c2) == self_) continue;
    // Rough pre-filter; the owning engine re-checks before issuing.
    if (as.dentries[c2].state.load(std::memory_order_relaxed) != DentryState::kInvalid)
      continue;
    auto* r = new LocalRequest();
    r->kind = LocalRequest::Kind::kPrefetch;
    r->array = as.meta->id;
    r->chunk = c2;
    node_->submit_local(r);  // counted in handle_local by the owning engine
  }
}

void Engine::wake_parked(NodeArrayState& as, ChunkId c) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  const DentryState s = d.state.load(std::memory_order_acquire);
  const uint16_t cur_op = d.op_id.load(std::memory_order_acquire);
  std::vector<LocalRequest*> leftover;
  for (LocalRequest* r : ctl.parked) {
    if (r->kind == LocalRequest::Kind::kPrefetch) {
      delete r;
    } else if (satisfies(s, cur_op, *r)) {
      perform_access(as, c, r);
    } else {
      leftover.push_back(r);  // needs a stronger grant (e.g. write after read)
    }
  }
  ctl.parked = std::move(leftover);
  if (!ctl.parked.empty()) try_issue_remote(as, c);
}

void Engine::on_fill(NodeArrayState& as, ChunkId c, const net::RpcMessage& m) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  DARRAY_ASSERT(ctl.outstanding);
  DARRAY_ASSERT(ctl.line != nullptr);
  ctl.outstanding = false;
  obs::trace(obs::Ev::kDirResp, m.hdr.trace, static_cast<uint8_t>(m.hdr.type),
             static_cast<uint16_t>(self_), static_cast<uint32_t>(c), m.hdr.src_node);

  d.data.store(ctl.line->data, std::memory_order_release);
  switch (m.hdr.type) {
    case MsgType::kReadData:
      d.promote(DentryState::kRead);
      break;
    case MsgType::kWriteData:
      d.promote(DentryState::kWrite);
      break;
    case MsgType::kOperateResp: {
      // Seed the combine buffer with the operator identity before publishing.
      const OpDesc& op = node_->cluster().op(m.hdr.op_id);
      CombineView cb{ctl.line->combine_slots, ctl.line->bitmap, as.meta->chunk_elems};
      cb.reset(op);
      ctl.combine_valid = true;
      d.op_id.store(m.hdr.op_id, std::memory_order_release);
      d.combine.store(ctl.line->combine_slots, std::memory_order_release);
      d.combine_bitmap.store(ctl.line->bitmap, std::memory_order_release);
      d.promote(DentryState::kOperated);
      break;
    }
    default:
      DARRAY_UNREACHABLE("bad fill type");
  }
  wake_parked(as, c);
}

void Engine::on_invalidate(NodeArrayState& as, ChunkId c, const net::RpcMessage& m) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  const NodeId home = m.hdr.src_node;
  const uint64_t trace = m.hdr.trace;
  const DentryState s = d.state.load(std::memory_order_acquire);
  if (s == DentryState::kRead) {
    start_drain(d, DentryState::kInvalid, [this, &as, c, home, trace] {
      ChunkCtl& ctl2 = as.ctl[c];
      Dentry& d2 = as.dentries[c];
      d2.data.store(nullptr, std::memory_order_release);
      if (ctl2.line) {
        region_->free(ctl2.line);
        ctl2.line = nullptr;
      }
      send_msg(home, MsgType::kInvAck, as.meta->id, c, kNoOp, 0, 0, 0, 0, trace);
      try_issue_remote(as, c);  // requests parked while we were draining
    });
    return;
  }
  // Already evicted silently, or a fill for a newer epoch is pending (our
  // request is queued behind the home's transaction): ack immediately.
  DARRAY_ASSERT(s != DentryState::kWrite && s != DentryState::kOperated);
  (void)ctl;
  send_msg(home, MsgType::kInvAck, as.meta->id, c, kNoOp, 0, 0, 0, 0, trace);
}

void Engine::on_fetch(NodeArrayState& as, ChunkId c, const net::RpcMessage& m) {
  Dentry& d = as.dentries[c];
  const NodeId home = m.hdr.src_node;
  if (d.state.load(std::memory_order_acquire) != DentryState::kWrite) {
    // Voluntary writeback already in flight; the home will treat it as our
    // response (per-QP FIFO guarantees it arrives).
    return;
  }
  const bool keep = m.hdr.aux == static_cast<uint32_t>(net::FetchTarget::kShared);
  const uint64_t trace = m.hdr.trace;
  const DentryState target = keep ? DentryState::kRead : DentryState::kInvalid;
  start_drain(d, target, [this, &as, c, home, keep, trace] {
    ChunkCtl& ctl = as.ctl[c];
    net::TxRequest t;
    t.dst = static_cast<uint16_t>(home);
    t.hdr.type = MsgType::kFetchData;
    t.hdr.array_id = as.meta->id;
    t.hdr.chunk = c;
    t.hdr.trace = trace;
    t.data_src = ctl.line->data;
    t.data_len = as.meta->elems_in_chunk(c) * as.meta->elem_size;
    t.data_lkey = region_->data_lkey();
    t.data_remote_addr = as.meta->home_chunk_addr(c);
    t.data_rkey = as.meta->subarrays[home].rkey;
    if (!keep) {
      Dentry& d2 = as.dentries[c];
      d2.data.store(nullptr, std::memory_order_release);
      ctl.line->tx_posted.store(0, std::memory_order_release);
      t.posted_flag = &ctl.line->tx_posted;
      region_->free_when_posted(ctl.line);
      ctl.line = nullptr;
    }
    node_->comm().post(std::move(t));
    try_issue_remote(as, c);
  });
}

void Engine::on_flush_req(NodeArrayState& as, ChunkId c, const net::RpcMessage& m) {
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];
  const DentryState s = d.state.load(std::memory_order_acquire);
  if (s == DentryState::kOperated) {
    const uint16_t op_id = d.op_id.load(std::memory_order_acquire);
    const uint64_t trace = m.hdr.trace;
    start_drain(d, DentryState::kInvalid, [this, &as, c, op_id, trace] {
      ChunkCtl& ctl2 = as.ctl[c];
      Dentry& d2 = as.dentries[c];
      d2.data.store(nullptr, std::memory_order_release);
      d2.combine.store(nullptr, std::memory_order_release);
      d2.combine_bitmap.store(nullptr, std::memory_order_release);
      d2.op_id.store(kNoOp, std::memory_order_release);
      send_combine_flush(as, c, ctl2, op_id, trace);
      region_->free(ctl2.line);
      ctl2.line = nullptr;
      try_issue_remote(as, c);  // requests parked while we were draining
    });
    return;
  }
  if (ctl.combine_valid) {
    // We are mid-upgrade (kPending*): the line is being reused as the fill
    // target but its combine area still holds our unflushed operands.
    send_combine_flush(as, c, ctl, m.hdr.op_id, m.hdr.trace);
    return;
  }
  // A voluntary OpFlush from us is already in flight; home counts that one.
}

// ---------------------------------------------------------------------------
// Operate flush plumbing
// ---------------------------------------------------------------------------

net::PayloadBuf Engine::build_flush_payload(const NodeArrayState& as, ChunkId c,
                                            CacheLine* line) const {
  const uint32_t elems = as.meta->elems_in_chunk(c);
  net::PayloadBuf payload;
  const uint32_t words = (as.meta->chunk_elems + 63) / 64;
  for (uint32_t w = 0; w < words; ++w) {
    uint64_t bits = line->bitmap[w].load(std::memory_order_acquire);
    while (bits) {
      const uint32_t off = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (off >= elems) continue;
      net::OpFlushEntry e;
      e.offset = static_cast<uint16_t>(off);
      std::memcpy(&e.value_bits, line->combine_slots + size_t{off} * 8, 8);
      payload.append(&e, sizeof(e));
    }
  }
  return payload;
}

void Engine::send_combine_flush(NodeArrayState& as, ChunkId c, ChunkCtl& ctl,
                                uint16_t op_id, uint64_t trace) {
  const NodeId home = as.meta->home_of_chunk(c);
  net::PayloadBuf payload = build_flush_payload(as, c, ctl.line);
  ctl.combine_valid = false;
  stats_.combine_flushes++;
  obs::trace(obs::Ev::kCombineFlush, trace, 0, static_cast<uint16_t>(self_),
             static_cast<uint32_t>(c), payload.size() / sizeof(net::OpFlushEntry));
  send_msg(home, MsgType::kOpFlush, as.meta->id, c, op_id, 0, 0, 0, 0, trace,
           std::move(payload));
}

void Engine::apply_flush_payload(NodeArrayState& as, ChunkId c, uint16_t op_id,
                                 const net::PayloadBuf& payload) {
  if (payload.empty()) return;
  const OpDesc& op = node_->cluster().op(op_id);
  std::byte* base = as.chunk_data(c);
  const size_t n = payload.size() / sizeof(net::OpFlushEntry);
  for (size_t i = 0; i < n; ++i) {
    net::OpFlushEntry e;
    std::memcpy(&e, payload.data() + i * sizeof(e), sizeof(e));
    // Home-local appliers may be running concurrently (voluntary flush while
    // the chunk is still Operated), so the reduce must also be atomic.
    atomic_apply(base + size_t{e.offset} * op.elem_size, op, &e.value_bits);
  }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void Engine::local_lock_acquire(LocalRequest* r) {
  NodeArrayState& as = state_of(r->array);
  const NodeId home = as.meta->home_of_chunk(r->chunk);
  stats_.lock_acquires++;
  if (home == self_) {
    if (locks_.acquire(r->array, r->index,
                       LockWaiter{self_, r->lock_write != 0, 0, r, r->trace_id})) {
      r->done.signal();
    } else {
      stats_.lock_waits++;
    }
    return;  // queued waiters are signalled on release
  }
  const uint32_t txn = next_txn_++;
  pending_locks_[txn] = r;
  send_msg(home, MsgType::kLockAcq, r->array, r->chunk, kNoOp, r->index, 0,
           r->lock_write, txn, r->trace_id);
}

void Engine::local_lock_release(LocalRequest* r) {
  NodeArrayState& as = state_of(r->array);
  const NodeId home = as.meta->home_of_chunk(r->chunk);
  if (home == self_) {
    std::deque<LockWaiter> grants;
    locks_.release(r->array, r->index, self_, grants);
    deliver_lock_grants(r->array, r->index, grants);
  } else {
    send_msg(home, MsgType::kLockRel, r->array, r->chunk, kNoOp, r->index, 0, 0, 0,
             r->trace_id);
  }
  r->done.signal();
}

void Engine::rpc_lock(const net::RpcMessage& m) {
  switch (m.hdr.type) {
    case MsgType::kLockAcq: {
      const bool write = m.hdr.aux != 0;
      if (locks_.acquire(m.hdr.array_id, m.hdr.addr,
                         LockWaiter{m.hdr.src_node, write, m.hdr.txn_id, nullptr,
                                    m.hdr.trace})) {
        send_msg(m.hdr.src_node, MsgType::kLockGrant, m.hdr.array_id, m.hdr.chunk, kNoOp,
                 m.hdr.addr, 0, 0, m.hdr.txn_id, m.hdr.trace);
      } else {
        stats_.lock_waits++;
      }
      return;
    }
    case MsgType::kLockRel: {
      std::deque<LockWaiter> grants;
      locks_.release(m.hdr.array_id, m.hdr.addr, m.hdr.src_node, grants);
      deliver_lock_grants(m.hdr.array_id, m.hdr.addr, grants);
      return;
    }
    case MsgType::kLockGrant: {
      auto it = pending_locks_.find(m.hdr.txn_id);
      DARRAY_ASSERT_MSG(it != pending_locks_.end(), "grant for unknown lock txn");
      it->second->done.signal();
      pending_locks_.erase(it);
      return;
    }
    default:
      DARRAY_UNREACHABLE("not a lock message");
  }
}

void Engine::deliver_lock_grants(ArrayId array, uint64_t index,
                                 std::deque<LockWaiter>& grants) {
  NodeArrayState& as = state_of(array);
  const ChunkId c = as.meta->chunk_of(index);
  for (const LockWaiter& w : grants) {
    if (w.local) {
      w.local->done.signal();
    } else {
      send_msg(w.node, MsgType::kLockGrant, array, c, kNoOp, index, 0, 0, w.txn_id,
               w.trace);
    }
  }
}

// ---------------------------------------------------------------------------
// Cache eviction (§4.2, Fig. 7)
// ---------------------------------------------------------------------------

size_t Engine::reclaim() {
  // At least one line: tiny regions floor the watermark to zero, which would
  // make reclamation a no-op and wedge allocation retries forever.
  const size_t target = std::max<size_t>(1, region_->high_watermark_count());
  const size_t cap = region_->capacity();
  size_t freed = 0;
  size_t scanned = 0;
  while (region_->free_count() < target && scanned < cap) {
    CacheLine& line = region_->slot(region_->scan_ptr);
    region_->scan_ptr = (region_->scan_ptr + 1) % cap;
    scanned++;
    if (!line.used) continue;
    if (try_evict(line)) freed++;
  }
  return freed;
}

bool Engine::try_evict(CacheLine& line, bool watch) {
  NodeArrayState& as = state_of(line.array);
  const ChunkId c = line.chunk;
  ChunkCtl& ctl = as.ctl[c];
  Dentry& d = as.dentries[c];

  const DentryState s = d.state.load(std::memory_order_acquire);
  if (s != DentryState::kRead && s != DentryState::kWrite && s != DentryState::kOperated)
    return false;  // intermediate state: skip (paper §4.2)
  // Someone is accessing (or pinned): skip, or, for a waiting allocation, ask
  // the last release to ring.
  if (!d.drained() && !(watch && d.watch())) return false;

  // Fig. 5 steps, but non-blocking: re-check the refcount after raising the
  // delay flag and bail out rather than wait.
  d.delay.store(true, std::memory_order_release);
  if (!d.drained()) {
    d.finish_drain();
    return false;
  }
  d.state.store(DentryState::kInvalid, std::memory_order_release);
  d.data.store(nullptr, std::memory_order_release);

  switch (s) {
    case DentryState::kRead:
      // Silent drop; the home's sharer list goes stale, which a later
      // Invalidate tolerates.
      stats_.evict_clean++;
      d.finish_drain();
      region_->free(ctl.line);
      ctl.line = nullptr;
      return true;
    case DentryState::kWrite: {
      stats_.evict_writeback++;
      d.finish_drain();
      const NodeId home = as.meta->home_of_chunk(c);
      net::TxRequest t;
      t.dst = static_cast<uint16_t>(home);
      t.hdr.type = MsgType::kWriteback;
      t.hdr.array_id = as.meta->id;
      t.hdr.chunk = c;
      t.data_src = ctl.line->data;
      t.data_len = as.meta->elems_in_chunk(c) * as.meta->elem_size;
      t.data_lkey = region_->data_lkey();
      t.data_remote_addr = as.meta->home_chunk_addr(c);
      t.data_rkey = as.meta->subarrays[home].rkey;
      ctl.line->tx_posted.store(0, std::memory_order_release);
      t.posted_flag = &ctl.line->tx_posted;
      region_->free_when_posted(ctl.line);
      ctl.line = nullptr;
      node_->comm().post(std::move(t));
      return true;
    }
    case DentryState::kOperated: {
      stats_.evict_opflush++;
      const uint16_t op_id = d.op_id.load(std::memory_order_acquire);
      d.combine.store(nullptr, std::memory_order_release);
      d.combine_bitmap.store(nullptr, std::memory_order_release);
      d.op_id.store(kNoOp, std::memory_order_release);
      d.finish_drain();
      send_combine_flush(as, c, ctl, op_id);
      region_->free(ctl.line);
      ctl.line = nullptr;
      return true;
    }
    default:
      DARRAY_UNREACHABLE("filtered above");
  }
}

// A request that must wait found no slot, even after reclaim(). Ask each
// line that can free one to ring the engine once it does, so the retry waits
// without polling; returns whether a slot freed while asking. A release
// still waiting for its WRITE rings once posted. With none pending,
// reclaim() scanned every line, so each is mid-transition (the message or
// drain that ends it runs a pass) or referenced: a referenced line rings on
// its last release (Dentry::watch), and one released meanwhile is evicted.
bool Engine::watch_lines() {
  if (region_->ring_when_posted()) return region_->tick_pending_releases();
  bool freed = false;
  for (size_t i = 0; i < region_->capacity(); ++i) {
    CacheLine& line = region_->slot(i);
    if (line.used) freed |= try_evict(line, /*watch=*/true);
  }
  region_->ring_when_posted();  // an eviction above may wait for its WRITE
  return freed;
}

// ---------------------------------------------------------------------------
// Drains & messaging
// ---------------------------------------------------------------------------

void Engine::start_drain(Dentry& d, DentryState target, std::function<void()> then) {
  d.begin_drain(target);
  if (d.drained()) {
    d.finish_drain();
    then();
    return;
  }
  drains_.push_back({&d, std::move(then)});
}

void Engine::send_msg(NodeId dst, MsgType type, ArrayId array, ChunkId chunk, uint16_t op,
                      uint64_t addr, uint32_t rkey, uint32_t aux, uint32_t txn,
                      uint64_t trace, net::PayloadBuf payload) {
  DARRAY_ASSERT_MSG(dst != self_, "self messages must be handled locally");
  net::TxRequest t;
  t.dst = static_cast<uint16_t>(dst);
  t.hdr.type = type;
  t.hdr.array_id = array;
  t.hdr.op_id = op;
  t.hdr.chunk = chunk;
  t.hdr.addr = addr;
  t.hdr.rkey = rkey;
  t.hdr.aux = aux;
  t.hdr.txn_id = txn;
  t.hdr.trace = trace;
  t.payload = std::move(payload);
  node_->comm().post(std::move(t));
}

void Engine::send_chunk_data(NodeArrayState& as, ChunkId c, NodeId dst, MsgType type,
                             uint64_t raddr, uint32_t rkey, uint64_t trace) {
  net::TxRequest t;
  t.dst = static_cast<uint16_t>(dst);
  t.hdr.type = type;
  t.hdr.array_id = as.meta->id;
  t.hdr.chunk = c;
  t.hdr.trace = trace;
  t.data_src = as.chunk_data(c);
  t.data_len = as.meta->elems_in_chunk(c) * as.meta->elem_size;
  t.data_lkey = as.subarray_mr.lkey;
  t.data_remote_addr = raddr;
  t.data_rkey = rkey;
  node_->comm().post(std::move(t));
}

}  // namespace darray::rt
