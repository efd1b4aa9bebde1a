#include "net/comm_layer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/thread_registry.hpp"
#include "obs/trace.hpp"

namespace darray::net {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kInvalid: return "Invalid";
    case MsgType::kReadReq: return "ReadReq";
    case MsgType::kWriteReq: return "WriteReq";
    case MsgType::kOperateReq: return "OperateReq";
    case MsgType::kWriteback: return "Writeback";
    case MsgType::kOpFlush: return "OpFlush";
    case MsgType::kReadData: return "ReadData";
    case MsgType::kWriteData: return "WriteData";
    case MsgType::kOperateResp: return "OperateResp";
    case MsgType::kInvalidate: return "Invalidate";
    case MsgType::kFetch: return "Fetch";
    case MsgType::kFlushReq: return "FlushReq";
    case MsgType::kInvAck: return "InvAck";
    case MsgType::kFetchData: return "FetchData";
    case MsgType::kLockAcq: return "LockAcq";
    case MsgType::kLockGrant: return "LockGrant";
    case MsgType::kLockRel: return "LockRel";
    case MsgType::kReducePart: return "ReducePart";
    case MsgType::kClientReq: return "ClientReq";
    case MsgType::kClientResp: return "ClientResp";
    case MsgType::kBatch: return "Batch";
    case MsgType::kRndzReq: return "RndzReq";
    case MsgType::kRndzAck: return "RndzAck";
    case MsgType::kRndzFin: return "RndzFin";
    case MsgType::kMaxMsgType: break;
  }
  return "?";
}

const char* msg_class_name(uint8_t cls) {
  if (cls == kMsgClassDataWrite) return "DataWrite";
  if (cls == kMsgClassRndzData) return "RndzData";
  return msg_type_name(static_cast<MsgType>(cls));
}

static_assert(kNumMsgClasses <= obs::kMaxMsgClasses,
              "message-class histogram registry too small for the protocol");

namespace {
// Largest possible payload: one OpFlushEntry per element in a chunk. Also an
// upper bound on a staged data WRITE (a chunk of ≤8-byte elements), which is
// what lets chaos mode stage WRITE payloads in the same arena.
size_t compute_max_msg_bytes(const ClusterConfig& cfg) {
  return sizeof(MsgHeader) + size_t{cfg.chunk_elems} * sizeof(OpFlushEntry);
}

// The comm layer whose progress thread this is (null elsewhere): only it may
// wait in a Tx pass.
thread_local const CommLayer* t_progress = nullptr;

// The comm layer whose receive role this thread holds (null elsewhere). Only
// the holder consumes the recv CQ, so only it may arm the ring.
thread_local const CommLayer* t_rx_role = nullptr;

// DeferTx state: whether a scope is live on this thread, and the comm layer
// its deferred posts went to (one per scope: a pass posts through its own
// node).
thread_local bool t_defer = false;
thread_local CommLayer* t_deferred = nullptr;
}  // namespace

CommLayer::CommLayer(uint32_t node_id, uint32_t num_nodes, const ClusterConfig& cfg,
                     rdma::Device* device, DispatchFn dispatch, ProgressFn progress)
    : node_id_(node_id),
      num_nodes_(num_nodes),
      cfg_(cfg),
      device_(device),
      dispatch_(std::move(dispatch)),
      progress_(std::move(progress)),
      max_msg_bytes_(compute_max_msg_bytes(cfg)),
      qp_to_peer_(num_nodes, nullptr),
      outstanding_(num_nodes),
      recovery_(num_nodes),
      txb_(num_nodes),
      unsignaled_run_(num_nodes, 0),
      parked_recvs_(num_nodes) {
  // Send buffers: enough that every peer QP can hold a full unsignaled run
  // plus an open coalescing batch and slack, so acquire_send_buffer rarely
  // has to park on the CQ. Chaos mode also stages WRITE payloads here and
  // parks whole requests across backoff windows, so give it a deeper pool.
  send_buf_count_ = num_nodes_ * cfg_.selective_signal_interval * 2 + 32;
  if (cfg_.fault_plan != nullptr) {
    send_buf_count_ *= 4;
    // Chaos mode stages eager-fallback payloads (a NAKed rendezvous reverts
    // to chunked arena staging), so reserve room for a few concurrent
    // fallbacks of several-threshold size. Fallback payloads much larger
    // than 8× the threshold can exhaust the arena and wedge the Tx pass;
    // chaos tests must size transfers (or the threshold) accordingly.
    if (cfg_.rendezvous_enabled) {
      const size_t fallback_bytes = size_t{8} * cfg_.rendezvous_threshold_bytes;
      const size_t chunks = (fallback_bytes + max_msg_bytes_ - 1) / max_msg_bytes_;
      send_buf_count_ += static_cast<uint32_t>(4 * chunks);
    }
  }
  send_arena_ = std::make_unique<std::byte[]>(send_buf_count_ * max_msg_bytes_);
  send_mr_ = device_->reg_mr(send_arena_.get(), send_buf_count_ * max_msg_bytes_);
  send_free_.reserve(send_buf_count_);
  for (uint32_t i = 0; i < send_buf_count_; ++i) send_free_.push_back(i);
  post_wrs_.reserve(64);
  rx_backlog_.reserve(cfg_.coalesce_max_frames);
  rx_work_.reserve(cfg_.coalesce_max_frames);

  const size_t recv_count = size_t{num_nodes_} * cfg_.qp_depth;
  recv_arena_ = std::make_unique<std::byte[]>(recv_count * max_msg_bytes_);
  recv_mr_ = device_->reg_mr(recv_arena_.get(), recv_count * max_msg_bytes_);

  // Rendezvous lease table (slot index rides in the low 16 bits of the wire
  // lease id) and per-peer Tx byte counters.
  DARRAY_ASSERT(cfg_.rendezvous_max_leases <= 0x10000);
  leases_.resize(cfg_.rendezvous_max_leases);
  peer_tx_ = std::make_unique<PeerTxCounters[]>(num_nodes_);

  // A SEND waiting for a peer's ring keeps this node's ring armed, when the
  // waiter holds the receive role, whether it is the progress thread or a
  // waiting application thread.
  device_->set_wait_hook([this] {
    if (t_rx_role == this) arm_recv_ring();
  });
}

CommLayer::~CommLayer() {
  stop();
  device_->set_wait_hook(nullptr);
}

void CommLayer::set_qp(uint32_t peer, rdma::QueuePair* qp) {
  DARRAY_ASSERT(peer < num_nodes_ && peer != node_id_);
  qp_to_peer_[peer] = qp;
  if (qp->qp_num() >= qp_by_num_.size()) qp_by_num_.resize(qp->qp_num() + 1, nullptr);
  qp_by_num_[qp->qp_num()] = qp;
}

void CommLayer::start() {
  DARRAY_ASSERT(!started_);
  started_ = true;
  // Prepost the full recv ring, qp_depth buffers per peer QP.
  size_t buf = 0;
  for (uint32_t peer = 0; peer < num_nodes_; ++peer) {
    if (peer == node_id_) continue;
    rdma::QueuePair* qp = qp_to_peer_[peer];
    DARRAY_ASSERT_MSG(qp != nullptr, "comm layer started before topology wiring");
    chaos_ = qp->fabric().fault_injector() != nullptr;
    for (uint32_t i = 0; i < cfg_.qp_depth; ++i, ++buf) {
      rdma::RecvWr wr;
      wr.addr = recv_arena_.get() + buf * max_msg_bytes_;
      wr.length = static_cast<uint32_t>(max_msg_bytes_);
      wr.lkey = recv_mr_.lkey;
      wr.wr_id = reinterpret_cast<uint64_t>(wr.addr);
      qp->post_recv(wr);
    }
  }
  progress_thread_ = std::thread([this] { progress_main(); });
  inline_ok_.store(true, std::memory_order_release);
}

void CommLayer::stop() {
  if (!started_) return;
  inline_ok_.store(false, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  bell_.ring();
  progress_thread_.join();
  started_ = false;
}

void CommLayer::post(TxRequest req) {
  DARRAY_ASSERT_MSG(req.dst != node_id_, "self-sends must be short-circuited in the runtime");
  tx_queue_.push(std::move(req));
  if (t_defer) {
    DARRAY_ASSERT_MSG(t_deferred == nullptr || t_deferred == this,
                      "one DeferTx scope posted through two comm layers");
    t_deferred = this;
    return;
  }
  run_or_ring();
}

CommLayer::DeferTx::DeferTx() {
  DARRAY_ASSERT_MSG(!t_defer, "nested DeferTx scope");
  t_defer = true;
}

CommLayer::DeferTx::~DeferTx() {
  t_defer = false;
  if (CommLayer* c = std::exchange(t_deferred, nullptr)) c->run_or_ring();
}

void CommLayer::run_or_ring() {
  // Nobody is running the Tx pass: run it here, so the request goes out
  // without a hand-off. Nobody does before start() or once stop() has begun.
  if (inline_ok_.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lk(tx_mu_, std::try_to_lock);
    if (lk.owns_lock()) {
      tx_pass(/*inline_caller=*/true);
      return;
    }
  }
  // The lock holder may be past its queue drain; the ring makes the progress
  // thread run one more pass.
  bell_.ring();
}

void CommLayer::fail(const CommError& err) {
  dropped_requests_.fetch_add(err.frames, std::memory_order_relaxed);
  if (error_fn_) {
    error_fn_(err);
    return;
  }
  DLOG_ERROR("node %u: unrecoverable comm failure to peer %u (%s, %s after %u attempts)",
             node_id_, err.peer, err.reason, rdma::wc_status_name(err.status),
             err.attempts);
  std::abort();
}

void CommLayer::fail_entry(uint32_t peer, Outstanding& e, const char* reason) {
  if (e.rndz_id != 0) {
    // An abandoned pull chunk abandons the whole pull, but loses nothing:
    // the message is still parked in the sender's lease, so NAK it back to
    // the eager path instead of surfacing an unrecoverable error. Sibling
    // chunks of the dead pull are dropped as they surface (map lookup miss).
    auto it = rndz_pulls_.find(e.rndz_id);
    if (it != rndz_pulls_.end()) {
      DLOG_DEBUG("node %u: rendezvous pull %u from peer %u abandoned (%s), NAKing",
                 node_id_, e.rndz_id, peer, reason);
      rndz_nak_.push_back({it->second.src, it->second.desc.lease_id, it->second.trace});
      rndz_pulls_.erase(it);
    }
    return;
  }
  release_buf(e.buf);
  CommError err;
  err.peer = peer;
  err.opcode = e.op;
  err.status = e.last_status;
  err.attempts = e.attempts;
  err.frames = e.frames;
  err.reason = reason;
  fail(err);
}

uint64_t CommLayer::backoff_ns(uint32_t attempts) const {
  const uint32_t shift = attempts < 20 ? attempts : 20;
  const uint64_t d = cfg_.comm_backoff_base_ns << shift;
  return d < cfg_.comm_backoff_cap_ns ? d : cfg_.comm_backoff_cap_ns;
}

void CommLayer::handle_error_cqe(const rdma::WorkCompletion& wc) {
  const uint32_t peer = wc.peer_node;
  auto& fifo = outstanding_[peer];
  auto& rec = recovery_[peer];
  // Per-QP FIFO: everything ahead of the failed WR completed successfully.
  while (!fifo.empty() && fifo.front().wr_id < wc.wr_id) {
    if (fifo.front().rndz_last) rndz_done_.push_back(fifo.front().rndz_id);
    release_buf(fifo.front().buf);
    fifo.pop_front();
  }
  if (fifo.empty() || fifo.front().wr_id != wc.wr_id) {
    // The failed WR was never tracked — a zero-copy WRITE posted outside
    // chaos mode (its source cacheline may already be recycled). Nothing to
    // replay from: surface as unrecoverable.
    CommError err;
    err.peer = peer;
    err.opcode = wc.opcode;
    err.status = wc.status;
    err.reason = "untracked WR failed";
    fail(err);
    return;
  }
  Outstanding e = std::move(fifo.front());
  fifo.pop_front();
  e.last_status = wc.status;
  if (wc.status != rdma::WcStatus::kFlushError) {
    // The entry that actually failed (flushed ones never ran) arms the
    // backoff clock for the whole peer.
    const uint64_t backoff = backoff_ns(e.attempts);
    rec.next_attempt_ns = now_ns() + backoff;
    obs::trace(obs::Ev::kFault, e.trace, static_cast<uint8_t>(wc.status),
               static_cast<uint16_t>(node_id_), peer, wc.wr_id);
    obs::trace(obs::Ev::kBackoff, e.trace, static_cast<uint8_t>(e.op),
               static_cast<uint16_t>(node_id_), peer, backoff);
    DLOG_DEBUG("node %u: wr %llu to peer %u failed (%s), retry #%u backing off",
               node_id_, static_cast<unsigned long long>(wc.wr_id), peer,
               rdma::wc_status_name(wc.status), e.attempts);
  }
  rec.moved.push_back(std::move(e));
}

void CommLayer::release_source(std::atomic<uint32_t>* posted_flag) {
  if (!posted_flag) return;
  // seq_cst, as in publish_and_notify: the notify must not miss a waiter.
  const bool ring = posted_flag->exchange(1) == kRingWhenPosted;
  posted_flag->notify_all();
  if (ring) owner_bell_.ring();
}

void CommLayer::reclaim_send_buffers() {
  rdma::WorkCompletion wcs[32];
  for (;;) {
    const size_t n = send_cq_.poll(wcs);
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      const rdma::WorkCompletion& wc = wcs[i];
      if (wc.status != rdma::WcStatus::kSuccess) {
        handle_error_cqe(wc);
        continue;
      }
      // A signaled completion retires every earlier entry on the same QP
      // (per-QP FIFO) — the point of selective signaling.
      auto& fifo = outstanding_[wc.peer_node];
      const bool rec = obs::tracing_enabled();
      const uint64_t done_ns = rec ? now_ns() : 0;
      while (!fifo.empty() && fifo.front().wr_id <= wc.wr_id) {
        const Outstanding& front = fifo.front();
        obs::trace(obs::Ev::kWrComplete, front.trace, static_cast<uint8_t>(front.op),
                   static_cast<uint16_t>(node_id_), wc.peer_node, front.wr_id);
        if (rec) {
          // Staging time recovered from the deadline (deadline = staged +
          // comm_deadline), so retirement latency spans coalescing delay,
          // doorbell batching, the wire, and any retry backoffs.
          const uint64_t staged = front.deadline_ns - cfg_.comm_deadline_ns;
          obs::msg_class_hist(front.msg_class)
              .record(done_ns > staged ? done_ns - staged : 0);
        }
        // A retired final READ chunk completes its rendezvous pull; the
        // dispatch + FIN happen at the full pass's top level (never nested
        // inside a flush), so just queue the id.
        if (front.rndz_last) rndz_done_.push_back(front.rndz_id);
        release_buf(front.buf);
        fifo.pop_front();
      }
    }
  }
}

uint32_t CommLayer::acquire_send_buffer() {
  if (send_free_.empty()) {
    reclaim_send_buffers();
    pump_retries(now_ns());
  }
  if (send_free_.empty() && !in_flush_) {
    // Sealed-but-unposted batches may be holding every buffer; post them so
    // their signaled completions can come back and retire the arena.
    flush_all();
    reclaim_send_buffers();
  }
  while (send_free_.empty()) {
    // Only the progress thread may wait here: the doorbell has one consumer,
    // and tx_pass keeps inline passes within the free arena. Its full pass
    // runs under the receive role, so it may arm the ring below.
    DARRAY_ASSERT_MSG(t_progress == this, "an inline Tx pass ran out of send buffers");
    DARRAY_ASSERT(t_rx_role == this);
    // The peer may be waiting on our ring while we wait on its completions:
    // keep the ring armed, then park on the doorbell (CQE arrivals ring it),
    // bounded by the earliest holdback or retry backoff — recovery may be
    // holding every buffer across a backoff window, and nothing rings the
    // bell when it expires.
    const uint32_t snap = bell_.snapshot();
    arm_recv_ring();
    reclaim_send_buffers();
    if (pump_retries(now_ns())) continue;  // re-arm the reset QP's ring first
    if (!send_free_.empty()) break;
    park(snap, next_due_in());
  }
  const uint32_t buf = send_free_.back();
  send_free_.pop_back();
  return buf;
}

rdma::SendWr CommLayer::wr_for(const Outstanding& e) {
  rdma::SendWr wr;
  wr.wr_id = e.wr_id;
  wr.opcode = e.op;
  // READ pull chunks (re-)read into their destination slice (an idempotent
  // replay); everything else is sent from its arena buffer.
  wr.sge = e.op == rdma::Opcode::kRead
               ? rdma::Sge{e.read_dst, e.len, e.read_lkey}
               : rdma::Sge{buf_ptr(e.buf), e.len, send_mr_.lkey};
  wr.remote_addr = e.remote_addr;
  wr.rkey = e.rkey;
  wr.signaled = true;  // staged and replayed WRs want prompt retirement
  return wr;
}

void CommLayer::post_entry(uint32_t peer, Outstanding e) {
  rdma::QueuePair* qp = qp_to_peer_[peer];
  const rdma::SendWr wr = wr_for(e);
  obs::trace(obs::Ev::kWrPost, e.trace, static_cast<uint8_t>(e.op),
             static_cast<uint16_t>(node_id_), peer, e.wr_id);
  outstanding_[peer].push_back(std::move(e));
  const bool ok = qp->post_send(wr);
  DARRAY_ASSERT_MSG(ok, "retry post failed local validation");
}

bool CommLayer::pump_retries(uint64_t now) {
  bool reset = false;
  for (uint32_t peer = 0; peer < num_nodes_; ++peer) {
    auto& rec = recovery_[peer];
    if (rec.moved.empty() && rec.retry.empty()) continue;
    // Wait until the errored QP has flushed everything back to us — replaying
    // while CQEs are still inbound would reorder the stream.
    if (!outstanding_[peer].empty()) continue;
    if (!rec.moved.empty()) {
      // Failed/flushed entries predate anything staged in retry.
      rec.retry.insert(rec.retry.begin(), std::make_move_iterator(rec.moved.begin()),
                       std::make_move_iterator(rec.moved.end()));
      rec.moved.clear();
    }
    if (now < rec.next_attempt_ns) continue;
    rdma::QueuePair* qp = qp_to_peer_[peer];
    reset |= qp->reset();  // ERROR → RTS; no-op when already RTS
    while (!rec.retry.empty()) {
      Outstanding e = std::move(rec.retry.front());
      rec.retry.pop_front();
      if (e.rndz_id != 0 && rndz_pulls_.find(e.rndz_id) == rndz_pulls_.end()) {
        // Chunk of a pull that was already abandoned (a sibling chunk NAKed
        // it): drop silently — the sender is re-sending eagerly.
        continue;
      }
      if (e.attempts >= cfg_.comm_max_attempts) {
        fail_entry(peer, e, "retry attempts exhausted");
        continue;
      }
      if (now > e.deadline_ns) {
        fail_entry(peer, e, "request deadline exceeded");
        continue;
      }
      if (e.attempts > 0) {
        qp->fabric().count_retry();
        obs::trace(obs::Ev::kRetry, e.trace, static_cast<uint8_t>(e.op),
                   static_cast<uint16_t>(node_id_), peer, e.attempts);
      }
      e.attempts++;
      e.wr_id = next_wr_id_++;
      post_entry(peer, std::move(e));
      // Failed again (or a fresh injected fault): stop replaying — everything
      // just posted flows back through error/flush CQEs in order.
      if (qp->state() == rdma::QpState::kError) break;
    }
  }
  return reset;
}

uint64_t CommLayer::retry_due_in(uint64_t now) const {
  uint64_t best = ~0ull;
  for (uint32_t peer = 0; peer < num_nodes_; ++peer) {
    const auto& rec = recovery_[peer];
    if (rec.moved.empty() && rec.retry.empty()) continue;
    if (!outstanding_[peer].empty()) continue;  // waiting on CQEs, not time
    const uint64_t due = rec.next_attempt_ns > now ? rec.next_attempt_ns - now : 0;
    if (due < best) best = due;
  }
  return best;
}

uint32_t CommLayer::stage_send_msg(TxRequest& req) {
  const uint32_t buf = acquire_send_buffer();
  std::byte* p = buf_ptr(buf);
  req.hdr.src_node = static_cast<uint16_t>(node_id_);
  req.hdr.payload_len = static_cast<uint32_t>(req.payload.size());
  std::memcpy(p, &req.hdr, sizeof(MsgHeader));
  if (!req.payload.empty())
    std::memcpy(p + sizeof(MsgHeader), req.payload.data(), req.payload.size());
  return buf;
}

template <typename Emit>
void CommLayer::stage_chunks(const std::byte* src, uint32_t len, uint64_t remote_addr,
                             uint32_t rkey, uint64_t trace, uint64_t now, Emit&& emit) {
  // Chunked to the arena buffer size so payloads larger than one buffer
  // (eager fallback of a NAKed rendezvous) survive staging; each chunk is an
  // independent replayable WRITE to its own remote slice.
  const uint32_t max_chunk = static_cast<uint32_t>(max_msg_bytes_);
  for (uint32_t off = 0; off < len; off += max_chunk) {
    const uint32_t n = std::min(max_chunk, len - off);
    Outstanding e;
    e.buf = acquire_send_buffer();
    e.len = n;
    e.op = rdma::Opcode::kWrite;
    e.remote_addr = remote_addr + off;
    e.rkey = rkey;
    e.deadline_ns = now + cfg_.comm_deadline_ns;
    e.trace = trace;
    e.msg_class = kMsgClassDataWrite;
    std::memcpy(buf_ptr(e.buf), src + off, n);
    emit(std::move(e));
  }
}

template <typename Emit>
void CommLayer::stage_data_chunks(TxRequest& req, uint64_t now, Emit&& emit) {
  stage_chunks(req.data_src, req.data_len, req.data_remote_addr, req.data_rkey,
               req.hdr.trace, now, emit);
  // Payload fully captured: the source cacheline may be recycled.
  release_source(req.posted_flag);
}

CommLayer::Outstanding CommLayer::make_send_entry(TxRequest& req, uint64_t now) {
  Outstanding e;
  e.buf = stage_send_msg(req);
  e.len = static_cast<uint32_t>(sizeof(MsgHeader) + req.payload.size());
  e.op = rdma::Opcode::kSend;
  e.deadline_ns = now + cfg_.comm_deadline_ns;
  e.trace = req.hdr.trace;
  e.msg_class = static_cast<uint8_t>(req.hdr.type);
  return e;
}

void CommLayer::stage_request(TxRequest& req, uint64_t now) {
  auto& rec = recovery_[req.dst];
  if (req.has_data())
    stage_data_chunks(req, now, [&rec](Outstanding&& e) { rec.retry.push_back(std::move(e)); });
  rec.retry.push_back(make_send_entry(req, now));
}

// --- coalescing Tx engine ----------------------------------------------------

void CommLayer::seal_batch(uint32_t peer) {
  TxBatch& b = txb_[peer];
  if (b.buf == kNoBuf) return;
  PendingWr p;
  std::byte* base = buf_ptr(b.buf);
  if (b.frames == 1) {
    // Singleton: strip the reserved envelope slot so the wire image is
    // byte-identical to the uncoalesced format.
    std::memmove(base, base + sizeof(MsgHeader), b.bytes - sizeof(MsgHeader));
    p.e.len = b.bytes - static_cast<uint32_t>(sizeof(MsgHeader));
  } else {
    write_batch_header(base, static_cast<uint16_t>(node_id_), b.frames,
                       b.bytes - sizeof(MsgHeader));
    p.e.len = b.bytes;
    qp_to_peer_[peer]->fabric().count_coalesced(b.frames);
  }
  p.e.buf = b.buf;
  p.e.op = rdma::Opcode::kSend;
  p.e.frames = static_cast<uint16_t>(b.frames);
  p.e.deadline_ns = b.open_ns + cfg_.comm_deadline_ns;
  p.e.trace = b.trace;
  p.e.msg_class = b.msg_class;
  p.tracked = true;
  p.wr.opcode = rdma::Opcode::kSend;
  p.wr.sge = {base, p.e.len, send_mr_.lkey};
  b.wrs.push_back(std::move(p));
  b.buf = kNoBuf;
  b.bytes = 0;
  b.frames = 0;
  b.trace = 0;
  b.msg_class = 0;
}

void CommLayer::append_frame(uint32_t peer, TxRequest& req, uint64_t now) {
  req.hdr.src_node = static_cast<uint16_t>(node_id_);
  req.hdr.payload_len = static_cast<uint32_t>(req.payload.size());
  const size_t fb = frame_bytes(req.payload.size());
  TxBatch& b = txb_[peer];

  // A frame too large to share a buffer with the kBatch envelope goes out
  // alone in the plain wire format.
  if (sizeof(MsgHeader) + fb > max_msg_bytes_) {
    DARRAY_ASSERT(fb <= max_msg_bytes_);
    seal_batch(peer);
    PendingWr p;
    p.e.buf = acquire_send_buffer();
    p.e.len = static_cast<uint32_t>(fb);
    p.e.op = rdma::Opcode::kSend;
    p.e.deadline_ns = now + cfg_.comm_deadline_ns;
    p.e.trace = req.hdr.trace;
    p.e.msg_class = static_cast<uint8_t>(req.hdr.type);
    write_frame(buf_ptr(p.e.buf), req.hdr, req.payload.data(), req.payload.size());
    p.tracked = true;
    p.wr.opcode = rdma::Opcode::kSend;
    p.wr.sge = {buf_ptr(p.e.buf), p.e.len, send_mr_.lkey};
    txb_[peer].wrs.push_back(std::move(p));
    return;
  }

  if (b.buf != kNoBuf &&
      (b.bytes + fb > max_msg_bytes_ || b.frames >= cfg_.coalesce_max_frames))
    seal_batch(peer);
  if (b.buf == kNoBuf) {
    b.buf = acquire_send_buffer();
    b.bytes = sizeof(MsgHeader);  // reserved kBatch envelope slot
    b.frames = 0;
    b.open_ns = now;
  }
  write_frame(buf_ptr(b.buf) + b.bytes, req.hdr, req.payload.data(), req.payload.size());
  b.bytes += static_cast<uint32_t>(fb);
  b.frames++;
  if (b.frames == 1) b.msg_class = static_cast<uint8_t>(req.hdr.type);
  if (b.trace == 0) b.trace = req.hdr.trace;
}

void CommLayer::enqueue_tx(TxRequest& req) {
  const uint32_t peer = req.dst;
  rdma::QueuePair* qp = qp_to_peer_[peer];
  DARRAY_ASSERT(qp != nullptr);
  const uint64_t now = now_ns();

  // Large-message engine: at or above the threshold, negotiate a rendezvous
  // (zero-copy one-sided pull by the peer) instead of moving bytes eagerly —
  // unless this request is already an eager fallback. Lease-table exhaustion
  // falls through to the eager path below.
  if (req.has_data() && !req.force_eager && cfg_.rendezvous_enabled &&
      req.data_len >= cfg_.rendezvous_threshold_bytes) {
    if (start_rndz(req)) return;
  }

  auto& pc = peer_tx_[peer];
  pc.send.fetch_add(sizeof(MsgHeader) + req.payload.size(), std::memory_order_relaxed);
  if (req.has_data()) pc.write.fetch_add(req.data_len, std::memory_order_relaxed);

  // Recovery in progress for this peer: everything staged but unposted lines
  // up in the retry queue first, then this request behind it, so the peer
  // still sees one FIFO stream.
  if (recovering(peer)) {
    stage_pending(peer);
    stage_request(req, now);
    return;
  }

  if (req.has_data()) {
    // Wire order: frames already packed precede the WRITE, and the WRITE
    // precedes this request's notification SEND — so seal the open batch
    // before appending the WRITE to the pending run.
    seal_batch(peer);
    if (chaos_) {
      // Under fault injection the WRITE must be replayable after its source
      // cacheline is recycled, so stage the payload like a SEND's.
      stage_data_chunks(req, now, [this, peer](Outstanding&& e) {
        PendingWr p;
        p.wr = wr_for(e);
        p.e = std::move(e);
        p.tracked = true;
        txb_[peer].wrs.push_back(std::move(p));
      });
    } else {
      // Zero-copy: the source must stay live until the WR is actually posted,
      // so the release hook fires at flush time.
      PendingWr p;
      p.wr.opcode = rdma::Opcode::kWrite;
      p.wr.remote_addr = req.data_remote_addr;
      p.wr.rkey = req.data_rkey;
      p.wr.sge = {req.data_src, req.data_len, req.data_lkey};
      p.wr.signaled = false;
      p.posted_flag = req.posted_flag;
      txb_[peer].wrs.push_back(std::move(p));
    }
  }

  append_frame(peer, req, now);
  // Coalescing off: every request is its own SEND, posted on its own (the
  // pre-coalescing wire behaviour).
  if (!cfg_.coalesce_enabled) flush_peer(peer);
}

void CommLayer::flush_peer(uint32_t peer, bool seal_open) {
  TxBatch& b = txb_[peer];
  if (seal_open) seal_batch(peer);
  if (b.wrs.empty()) return;
  const bool was_in_flush = in_flush_;
  in_flush_ = true;
  rdma::QueuePair* qp = qp_to_peer_[peer];
  if (recovering(peer)) {
    stage_pending(peer);
    in_flush_ = was_in_flush;
    return;
  }
  // Assign wr_ids and signaling in post order, enter tracked entries into the
  // outstanding FIFO, then ring the doorbell once with the whole run.
  post_wrs_.clear();
  uint32_t& run = unsignaled_run_[peer];
  for (PendingWr& p : b.wrs) {
    p.wr.wr_id = next_wr_id_++;
    if (p.tracked) {
      if (p.e.op == rdma::Opcode::kSend) {
        // Selective signaling: request a completion once per interval per QP
        // so the signaled CQE retires the whole unsignaled run behind it.
        // (Errors are always signaled by the fabric.)
        p.wr.signaled = ++run >= cfg_.selective_signal_interval;
        if (p.wr.signaled) run = 0;
      }  // chaos-staged WRITEs stay signaled for prompt retirement
      p.e.wr_id = p.wr.wr_id;
      p.e.attempts = 1;
      obs::trace(obs::Ev::kWrPost, p.e.trace, static_cast<uint8_t>(p.e.op),
                 static_cast<uint16_t>(node_id_), peer, p.e.wr_id);
      outstanding_[peer].push_back(p.e);
    }
    post_wrs_.push_back(p.wr);
  }
  const bool ok = qp->post_send(std::span<const rdma::SendWr>(post_wrs_));
  DARRAY_ASSERT_MSG(ok, "doorbell-batched post failed local validation");
  // The fabric executes transfers at post time, so zero-copy sources are
  // consumed: release them.
  for (PendingWr& p : b.wrs) release_source(p.posted_flag);
  b.wrs.clear();
  in_flush_ = was_in_flush;
}

void CommLayer::flush_all() {
  for (uint32_t peer = 0; peer < num_nodes_; ++peer) flush_peer(peer);
}

void CommLayer::flush_due(uint64_t now) {
  for (uint32_t peer = 0; peer < num_nodes_; ++peer) {
    TxBatch& b = txb_[peer];
    if (b.buf != kNoBuf && now - b.open_ns >= cfg_.coalesce_flush_ns)
      flush_peer(peer, /*seal_open=*/true);
    else if (!b.wrs.empty())
      flush_peer(peer, /*seal_open=*/false);  // post full batches, keep packing
  }
}

void CommLayer::stage_pending(uint32_t peer) {
  seal_batch(peer);
  TxBatch& b = txb_[peer];
  if (b.wrs.empty()) return;
  const bool was_in_flush = in_flush_;
  in_flush_ = true;
  auto& rec = recovery_[peer];
  const uint64_t now = now_ns();
  for (PendingWr& p : b.wrs) {
    if (!p.tracked) {
      // Zero-copy WRITE whose source is still live: capture the payload into
      // the arena so it can be replayed, then release the source.
      stage_chunks(p.wr.sge.addr, p.wr.sge.length, p.wr.remote_addr, p.wr.rkey, 0, now,
                   [&rec](Outstanding&& e) { rec.retry.push_back(std::move(e)); });
      release_source(p.posted_flag);
      continue;
    }
    rec.retry.push_back(std::move(p.e));
  }
  b.wrs.clear();
  in_flush_ = was_in_flush;
}

// --- rendezvous large-message engine (docs/perf.md) ---------------------------

bool CommLayer::start_rndz(TxRequest& req) {
  const uint16_t dst = req.dst;
  const uint64_t trace = req.hdr.trace;
  // The embedded notification frame is dispatched verbatim by the peer once
  // its pull completes, bypassing the normal stage path — so its header must
  // be fully cooked here.
  req.hdr.src_node = static_cast<uint16_t>(node_id_);
  req.hdr.payload_len = static_cast<uint32_t>(req.payload.size());
  RndzDesc d;
  d.src_addr = reinterpret_cast<uint64_t>(req.data_src);
  d.dst_addr = req.data_remote_addr;
  d.src_rkey = req.data_lkey;  // lkey == rkey in the simulated fabric
  d.dst_rkey = req.data_rkey;
  d.len = req.data_len;
  PayloadBuf wp;
  wp.resize(sizeof(RndzDesc) + sizeof(MsgHeader) + req.payload.size());
  DARRAY_ASSERT_MSG(sizeof(MsgHeader) + wp.size() <= max_msg_bytes_,
                    "rendezvous inner payload too large for a control frame");
  {
    std::lock_guard<std::mutex> lk(lease_mu_);
    size_t slot = leases_.size();
    for (size_t i = 0; i < leases_.size(); ++i) {
      if (!leases_[i].active) {
        slot = i;
        break;
      }
    }
    if (slot == leases_.size()) {
      // Every lease is pinned: fall back to the eager path rather than block
      // the Tx pass on a network round trip.
      rndz_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    RndzLease& L = leases_[slot];
    d.lease_id = (L.gen << 16) | static_cast<uint32_t>(slot);
    // Assemble the wrapper payload before parking the request (the inner
    // frame needs the request's header and payload bytes).
    std::byte* p = wp.data();
    std::memcpy(p, &d, sizeof(RndzDesc));
    std::memcpy(p + sizeof(RndzDesc), &req.hdr, sizeof(MsgHeader));
    if (!req.payload.empty())
      std::memcpy(p + sizeof(RndzDesc) + sizeof(MsgHeader), req.payload.data(),
                  req.payload.size());
    L.active = true;
    L.req = std::move(req);
  }
  rndz_started_.fetch_add(1, std::memory_order_relaxed);
  TxRequest w;
  w.dst = dst;
  w.hdr.type = MsgType::kRndzReq;
  w.hdr.txn_id = d.lease_id;
  w.hdr.trace = trace;
  w.payload = std::move(wp);
  enqueue_tx(w);
  return true;
}

void CommLayer::finish_lease(uint32_t id, bool completed) {
  const uint32_t slot = id & 0xffffu;
  TxRequest req;
  {
    std::lock_guard<std::mutex> lk(lease_mu_);
    if (slot >= leases_.size() || !leases_[slot].active ||
        ((leases_[slot].gen << 16) | slot) != id)
      return;  // stale FIN/ACK: the lease already fell back and was recycled
    RndzLease& L = leases_[slot];
    req = std::move(L.req);
    L.active = false;
    L.gen = (L.gen + 1) & 0xffffu;
  }
  if (completed) {
    // The peer's READs are done: the pinned source may finally be recycled.
    release_source(req.posted_flag);
    rndz_bytes_.fetch_add(req.data_len, std::memory_order_relaxed);
    peer_tx_[req.dst].rndz.fetch_add(req.data_len, std::memory_order_relaxed);
    // Last, with release: whoever reads `completed` (acquire, rndz_stats)
    // also sees the released source and the byte counts.
    rndz_completed_.fetch_add(1, std::memory_order_release);
  } else {
    // NAK: the peer could not pull. Re-post through the Tx queue with the
    // rendezvous path disabled so the bytes move eagerly.
    rndz_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    req.force_eager = true;
    post(std::move(req));
  }
}

bool CommLayer::handle_rndz_msg(RpcMessage& m) {
  switch (m.hdr.type) {
    case MsgType::kRndzReq: {
      DARRAY_ASSERT_MSG(m.payload.size() >= sizeof(RndzDesc) + sizeof(MsgHeader),
                        "malformed kRndzReq payload");
      RndzPull job;
      const std::byte* p = m.payload.data();
      std::memcpy(&job.desc, p, sizeof(RndzDesc));
      std::memcpy(&job.inner_hdr, p + sizeof(RndzDesc), sizeof(MsgHeader));
      DARRAY_ASSERT_MSG(m.payload.size() == sizeof(RndzDesc) + sizeof(MsgHeader) +
                                                job.inner_hdr.payload_len,
                        "malformed kRndzReq inner frame");
      if (job.inner_hdr.payload_len > 0)
        job.inner_payload.assign(p + sizeof(RndzDesc) + sizeof(MsgHeader),
                                 job.inner_hdr.payload_len);
      job.src = m.hdr.src_node;
      job.trace = m.hdr.trace;
      rndz_jobs_.push_back(std::move(job));  // this thread's next full pass pulls
      return true;
    }
    case MsgType::kRndzFin:
      finish_lease(m.hdr.txn_id, /*completed=*/true);
      return true;
    case MsgType::kRndzAck:
      finish_lease(m.hdr.txn_id, /*completed=*/false);
      return true;
    default:
      return false;
  }
}

void CommLayer::start_pull(RndzPull&& job, uint64_t now) {
  const uint32_t peer = job.src;
  DARRAY_ASSERT(peer < num_nodes_ && qp_to_peer_[peer] != nullptr);
  rdma::QueuePair* qp = qp_to_peer_[peer];
  const RndzDesc desc = job.desc;
  const uint64_t trace = job.trace;
  std::byte* dst = device_->translate(desc.dst_addr, desc.dst_rkey, desc.len);
  if (dst == nullptr || desc.len == 0) {
    // Destination not registered here (or a degenerate advertisement): NAK so
    // the sender reverts to eager and its own validation paths.
    rndz_nak_.push_back({job.src, desc.lease_id, trace});
    return;
  }
  const uint32_t id = next_rndz_id_++;
  if (next_rndz_id_ == 0) next_rndz_id_ = 1;  // id 0 means "not a pull chunk"
  rndz_pulls_.emplace(id, std::move(job));

  auto& rec = recovery_[peer];
  const bool behind_recovery = recovering(peer);
  if (behind_recovery) stage_pending(peer);  // pulls line up behind staged work
  const uint32_t mtu = cfg_.rendezvous_mtu_bytes;
  post_wrs_.clear();
  for (uint32_t off = 0; off < desc.len; off += mtu) {
    const uint32_t n = std::min(mtu, desc.len - off);
    Outstanding e;
    e.op = rdma::Opcode::kRead;
    e.len = n;
    e.remote_addr = desc.src_addr + off;
    e.rkey = desc.src_rkey;
    e.read_dst = dst + off;
    e.read_lkey = desc.dst_rkey;
    e.deadline_ns = now + cfg_.comm_deadline_ns;
    e.trace = trace;
    e.msg_class = kMsgClassRndzData;
    e.rndz_id = id;
    e.rndz_last = off + n >= desc.len;
    if (behind_recovery) {
      rec.retry.push_back(std::move(e));
      continue;
    }
    e.attempts = 1;
    e.wr_id = next_wr_id_++;
    rdma::SendWr wr;
    wr.wr_id = e.wr_id;
    wr.opcode = rdma::Opcode::kRead;
    wr.sge = {e.read_dst, n, e.read_lkey};
    wr.remote_addr = e.remote_addr;
    wr.rkey = e.rkey;
    // One signaled completion per pull: the final chunk's CQE retires the
    // whole run (per-QP FIFO). Errors are always signaled by the fabric.
    wr.signaled = e.rndz_last;
    obs::trace(obs::Ev::kWrPost, e.trace, static_cast<uint8_t>(e.op),
               static_cast<uint16_t>(node_id_), peer, e.wr_id);
    outstanding_[peer].push_back(std::move(e));
    post_wrs_.push_back(wr);
  }
  if (!post_wrs_.empty()) {
    const bool ok = qp->post_send(std::span<const rdma::SendWr>(post_wrs_));
    DARRAY_ASSERT_MSG(ok, "rendezvous READ post failed local validation");
    post_wrs_.clear();
  }
}

void CommLayer::send_ctl(uint16_t dst, MsgType type, uint32_t lease_id, uint64_t trace) {
  TxRequest req;
  req.dst = dst;
  req.hdr.type = type;
  req.hdr.txn_id = lease_id;
  req.hdr.trace = trace;
  enqueue_tx(req);
}

bool CommLayer::process_rndz_actions() {
  if (rndz_done_.empty() && rndz_nak_.empty()) return false;
  // Swap the lists out first: the sends below can re-enter reclaim and append.
  std::vector<uint32_t> done;
  done.swap(rndz_done_);
  std::vector<RndzNak> naks;
  naks.swap(rndz_nak_);
  for (uint32_t id : done) {
    auto it = rndz_pulls_.find(id);
    if (it == rndz_pulls_.end()) continue;  // abandoned before retirement
    RndzPull pull = std::move(it->second);
    rndz_pulls_.erase(it);
    qp_to_peer_[pull.src]->fabric().count_rndz(pull.desc.len);
    // The signaled CQE guarantees every READ chunk landed: release the
    // sender's lease with a FIN, and queue the embedded notification for
    // dispatch outside the Tx lock.
    RpcMessage m;
    m.hdr = pull.inner_hdr;
    m.payload = std::move(pull.inner_payload);
    rx_backlog_.push_back(std::move(m));
    send_ctl(pull.src, MsgType::kRndzFin, pull.desc.lease_id, pull.trace);
  }
  for (const RndzNak& n : naks)
    send_ctl(n.src, MsgType::kRndzAck, n.lease_id, n.trace);
  return true;
}

// --- the Tx pass ----------------------------------------------------------------

bool CommLayer::recovering(uint32_t peer) const {
  const auto& rec = recovery_[peer];
  return qp_to_peer_[peer]->state() == rdma::QpState::kError || !rec.moved.empty() ||
         !rec.retry.empty();
}

size_t CommLayer::arena_bound(const TxRequest& req) const {
  // One buffer for the frame (a batch or a lone oversize frame) plus the data
  // WRITE chunked to arena buffers: chaos staging takes that many, and so
  // does capturing a zero-copy WRITE when its peer enters recovery.
  const size_t data = req.has_data() ? (req.data_len + max_msg_bytes_ - 1) / max_msg_bytes_ : 0;
  return 1 + data;
}

bool CommLayer::tx_pass(bool inline_caller) {
  bool progressed = false;
  // An inline caller must never park, and acquire_send_buffer parks when the
  // arena is empty. So it takes a request only while the arena still covers
  // the worst case of every request taken in this pass (buffers come back
  // only through reclaim, which runs after the drain). Whatever it leaves
  // queued goes to the progress thread, in order, as does any peer in
  // recovery.
  size_t budget = inline_caller ? send_free_.size() : 0;
  bool handoff = false;
  TxRequest req;
  uint32_t drained = 0;
  for (;;) {
    if (inline_caller) {
      const TxRequest* next = tx_queue_.front();
      if (next == nullptr) break;
      const size_t need = arena_bound(*next);
      if (need > budget || recovering(next->dst)) {
        handoff = true;
        break;
      }
      budget -= need;
    }
    if (!tx_queue_.pop(req)) break;
    enqueue_tx(req);
    progressed = true;
    // Long drains must not hold frames past the coalescing deadline.
    if ((++drained & 63u) == 0) flush_due(now_ns());
  }
  // Rendezvous pulls a role holder's dispatch parsed (a pull is a
  // doorbell-batched run of READ WRs).
  if (!inline_caller && !rndz_jobs_.empty()) {
    for (RndzPull& job : rndz_jobs_) start_pull(std::move(job), now_ns());
    rndz_jobs_.clear();
    progressed = true;
  }
  // Drain over: ring each peer's doorbell once with everything staged.
  flush_all();
  reclaim_send_buffers();
  if (inline_caller) {
    // Backoff-timed replays and rendezvous actions belong to the progress
    // thread.
    bool any_recovering = false;
    for (uint32_t peer = 0; peer < num_nodes_; ++peer)
      any_recovering |= peer != node_id_ && recovering(peer);
    inline_passes_.fetch_add(1, std::memory_order_relaxed);
    if (handoff || any_recovering || !rndz_done_.empty() || !rndz_nak_.empty()) {
      handoffs_.fetch_add(1, std::memory_order_relaxed);
      bell_.ring();
    }
    return progressed;
  }
  progressed |= pump_retries(now_ns());
  // Completed/abandoned pulls surface here, at top level only (never nested
  // inside a flush): dispatch + FIN, or NAK. The control sends they stage
  // go out in a final flush pass.
  if (process_rndz_actions()) {
    progressed = true;
    flush_all();
    reclaim_send_buffers();
  }
  return progressed;
}

uint64_t CommLayer::next_due_in() const {
  // Completions may be held back by the latency model, and retries wait out
  // their backoff window; none of them rings the doorbell when it is due.
  return std::min({send_cq_.next_due_in(), recv_cq_.next_due_in(), retry_due_in(now_ns())});
}

void CommLayer::park(uint32_t snap, uint64_t due) {
  if (due == 0) return;
  // sleep_for has a scheduler-quantum floor far above microsecond-scale link
  // latencies, so short waits busy-poll.
  if (due < 20'000) {
    cpu_relax();
    return;
  }
  const uint64_t t0 = duty_.park_begin();
  if (due == ~0ull) {
    bell_.wait_change(snap);
  } else {
    // A timed park still answers the doorbell within a slice: the ring may
    // be a message for the receive ring.
    const uint64_t until = t0 + due;
    for (uint64_t now = t0; now < until && bell_.snapshot() == snap; now = now_ns()) {
      const uint64_t slice = std::min<uint64_t>(until - now, 50'000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
    }
  }
  duty_.park_end(t0);
}

bool CommLayer::arm_recv_ring() {
  bool progressed = false;
  rdma::WorkCompletion wcs[32];
  for (;;) {
    const size_t n = recv_cq_.poll(wcs);
    if (n == 0) break;
    progressed = true;
    for (size_t i = 0; i < n; ++i) {
      const rdma::WorkCompletion& wc = wcs[i];
      DARRAY_ASSERT(wc.opcode == rdma::Opcode::kRecv);
      rdma::RecvWr rwr;
      rwr.addr = reinterpret_cast<std::byte*>(wc.wr_id);
      rwr.length = static_cast<uint32_t>(max_msg_bytes_);
      rwr.lkey = recv_mr_.lkey;
      rwr.wr_id = wc.wr_id;
      if (wc.status == rdma::WcStatus::kFlushError) {
        // Our QP errored and flushed its recv ring. Park the buffer; it is
        // reposted once the Tx pass has reset the QP (reposting now would
        // just flush again).
        parked_recvs_[wc.peer_node].push_back(rwr);
        continue;
      }
      DARRAY_ASSERT(wc.status == rdma::WcStatus::kSuccess);
      const std::byte* bufp = rwr.addr;
      MsgHeader hdr;
      std::memcpy(&hdr, bufp, sizeof(MsgHeader));
      DARRAY_ASSERT(sizeof(MsgHeader) + hdr.payload_len == wc.byte_len);
      if (hdr.type == MsgType::kBatch) {
        // Coalesced SEND: unpack every frame (copying payloads out of the
        // recv ring).
        BatchReader r(bufp + sizeof(MsgHeader), hdr.payload_len, hdr.aux);
        MsgHeader fh;
        const std::byte* fp = nullptr;
        while (r.next(fh, fp)) {
          RpcMessage& m = rx_backlog_.emplace_back();
          m.hdr = fh;
          if (fh.payload_len > 0) m.payload.assign(fp, fh.payload_len);
        }
        DARRAY_ASSERT_MSG(r.valid(), "malformed coalesced batch image");
      } else {
        RpcMessage& m = rx_backlog_.emplace_back();
        m.hdr = hdr;
        if (hdr.payload_len > 0) m.payload.assign(bufp + sizeof(MsgHeader), hdr.payload_len);
      }
      // Copied out: repost the buffer to the QP it came from.
      qp_by_num_[wc.qp_num]->post_recv(rwr);
    }
  }
  // Re-arm parked recv buffers once their QP is back in RTS. A lost race
  // (the QP errors again mid-repost) just parks them again via flush CQEs.
  for (uint32_t peer = 0; peer < num_nodes_; ++peer) {
    auto& parked = parked_recvs_[peer];
    if (parked.empty()) continue;
    rdma::QueuePair* qp = qp_to_peer_[peer];
    if (qp->state() != rdma::QpState::kRts) continue;
    for (const rdma::RecvWr& r : parked) qp->post_recv(r);
    parked.clear();
    progressed = true;
  }
  return progressed;
}

bool CommLayer::dispatch_backlog() {
  if (rx_backlog_.empty()) return false;
  rx_work_.swap(rx_backlog_);
  for (RpcMessage& m : rx_work_) {
    DLOG_DEBUG("node %u rx %s from %u chunk=%llu", node_id_, msg_type_name(m.hdr.type),
               m.hdr.src_node, static_cast<unsigned long long>(m.hdr.chunk));
    // Rendezvous control traffic is transport-internal: consume it here
    // instead of delivering it to the runtime.
    if (handle_rndz_msg(m)) continue;
    dispatch_(std::move(m));
  }
  rx_work_.clear();
  return true;
}

std::optional<CommLayer::RxIteration> CommLayer::rx_iteration(bool progress_thread) {
  std::unique_lock<std::mutex> role(rx_mu_, std::try_to_lock);
  if (!role.owns_lock()) return std::nullopt;
  t_rx_role = this;
  RxIteration it;
  // Ring first: it must be armed before anything here can post.
  it.progressed = arm_recv_ring();
  it.progressed |= dispatch_backlog();
  if (progress_ && owner_bell_.take()) it.progressed |= progress_();
  {
    std::unique_lock<std::mutex> tx(tx_mu_, std::try_to_lock);
    if (tx.owns_lock()) {
      it.progressed |= tx_pass(/*inline_caller=*/!progress_thread);
      if (progress_thread) it.due = next_due_in();
    } else {
      // A poster is running a pass, which never parks and rings for what it
      // leaves.
      it.tx_busy = progress_thread;
    }
  }
  // A pass that waited on a peer's ring may have filled the backlog, and
  // only the progress thread's full pass starts rendezvous pulls.
  it.left = !rx_backlog_.empty() || !rndz_jobs_.empty();
  t_rx_role = nullptr;
  role.unlock();
  if (progress_thread) {
    rx_progress_passes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    rx_caller_passes_.fetch_add(1, std::memory_order_relaxed);
    // The progress thread may be parked on a snapshot taken before this
    // iteration: hand it what is left, as EngineShard::run_or_ring does.
    if (it.left) bell_.ring();
  }
  return it;
}

void CommLayer::wait(const Completion& done) {
  // Neither an engine pass nor another role holder may take the role: the
  // first would run passes inside its own, the second holds it already.
  if (!t_defer && t_rx_role == nullptr) {
    const uint64_t until = now_ns() + kCallerPollNs;
    while (!done.ready() && inline_ok_.load(std::memory_order_acquire) &&
           rx_iteration(/*progress_thread=*/false)) {
      if (done.ready() || now_ns() >= until) break;
      // On one CPU a spin would starve the thread that delivers.
      std::this_thread::yield();
    }
  }
  done.wait();
}

void CommLayer::progress_main() {
  char tname[16];
  std::snprintf(tname, sizeof tname, "net.%u", node_id_);
  obs::register_current_thread(tname);
  t_progress = this;
  duty_.on_start();
  for (;;) {
    const uint32_t snap = bell_.snapshot();
    const std::optional<RxIteration> it = rx_iteration(/*progress_thread=*/true);
    if (stop_.load(std::memory_order_acquire)) break;
    // A waiter holds the role for one iteration, or a poster runs a Tx pass
    // (neither parks): try again soon.
    if (!it || it->tx_busy) {
      std::this_thread::yield();
      continue;
    }
    if (it->progressed || it->left) continue;
    park(snap, it->due);
  }
  duty_.on_stop();
}

}  // namespace darray::net
