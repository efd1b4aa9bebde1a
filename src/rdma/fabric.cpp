#include "rdma/fabric.hpp"

#include <cstring>
#include <mutex>
#include <thread>

#include "chaos/fault_injector.hpp"
#include "common/assert.hpp"
#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/wait.hpp"

namespace darray::rdma {

const char* wc_status_name(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess: return "Success";
    case WcStatus::kRemoteAccessError: return "RemoteAccessError";
    case WcStatus::kRnrError: return "RnrError";
    case WcStatus::kRetryExceeded: return "RetryExceeded";
    case WcStatus::kFlushError: return "FlushError";
  }
  return "?";
}

Device* Fabric::create_device(uint32_t node_id) {
  std::scoped_lock lk(mu_);
  devices_.push_back(std::make_unique<Device>(node_id));
  return devices_.back().get();
}

std::pair<QueuePair*, QueuePair*> Fabric::connect(Device* a, CompletionQueue* a_send_cq,
                                                  CompletionQueue* a_recv_cq, Device* b,
                                                  CompletionQueue* b_send_cq,
                                                  CompletionQueue* b_recv_cq) {
  std::scoped_lock lk(mu_);
  const uint32_t qpn_a = static_cast<uint32_t>(qps_.size());
  qps_.push_back(std::make_unique<QueuePair>(this, a, a_send_cq, a_recv_cq, qpn_a));
  qps_.push_back(std::make_unique<QueuePair>(this, b, b_send_cq, b_recv_cq, qpn_a + 1));
  QueuePair* qa = qps_[qpn_a].get();
  QueuePair* qb = qps_[qpn_a + 1].get();
  qa->peer_ = qb;
  qb->peer_ = qa;
  return {qa, qb};
}

void Fabric::count(Opcode op, size_t bytes) {
  switch (op) {
    case Opcode::kWrite:
      writes_.fetch_add(1, std::memory_order_relaxed);
      bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
      break;
    case Opcode::kRead:
      reads_.fetch_add(1, std::memory_order_relaxed);
      bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
      break;
    case Opcode::kSend:
      sends_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
      break;
    case Opcode::kRecv:
      break;
  }
}

void Fabric::count_error(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess:
      break;
    case WcStatus::kFlushError:
      flushed_wrs_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WcStatus::kRnrError:
      rnr_events_.fetch_add(1, std::memory_order_relaxed);
      wc_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WcStatus::kRemoteAccessError:
    case WcStatus::kRetryExceeded:
      wc_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

FabricStats Fabric::stats() const {
  FabricStats s;
  s.writes = writes_.load(std::memory_order_relaxed);
  s.reads = reads_.load(std::memory_order_relaxed);
  s.sends = sends_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.wc_errors = wc_errors_.load(std::memory_order_relaxed);
  s.rnr_events = rnr_events_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.flushed_wrs = flushed_wrs_.load(std::memory_order_relaxed);
  s.coalesced_frames = coalesced_frames_.load(std::memory_order_relaxed);
  s.batched_posts = batched_posts_.load(std::memory_order_relaxed);
  s.rndz_transfers = rndz_transfers_.load(std::memory_order_relaxed);
  s.bytes_rndz = bytes_rndz_.load(std::memory_order_relaxed);
  return s;
}

void Fabric::reset_stats() {
  writes_ = reads_ = sends_ = 0;
  bytes_written_ = bytes_read_ = bytes_sent_ = 0;
  wc_errors_ = rnr_events_ = retries_ = flushed_wrs_ = 0;
  coalesced_frames_ = batched_posts_ = 0;
  rndz_transfers_ = bytes_rndz_ = 0;
}

uint32_t QueuePair::peer_node() const { return peer_->device_->node_id(); }

bool QueuePair::post_send(std::span<const SendWr> wrs) {
  if (wrs.size() > 1) fabric_->batched_posts_.fetch_add(1, std::memory_order_relaxed);
  bool ok = true;
  for (const SendWr& wr : wrs) ok = post_send(wr) && ok;
  return ok;
}

// Success completions are clamped monotone so per-QP FIFO survives the
// sorted-holdback CQ. Error completions are NOT clamped: they deliver at
// detection time, possibly overtaking earlier (still held back) successes on
// the same QP. Consumers already handle that positionally — a CQE for wr_id X
// retires everything before X — and prompt error visibility is what lets the
// comm layer stop feeding new WRs in behind a failed one.
void QueuePair::push_recv_cqe(WorkCompletion wc) {
  if (wc.status == WcStatus::kSuccess) {
    if (wc.deliver_at_ns < last_recv_cqe_ns_) wc.deliver_at_ns = last_recv_cqe_ns_;
    last_recv_cqe_ns_ = wc.deliver_at_ns;
  }
  fabric_->count_error(wc.status);
  recv_cq_->push(wc);
}

void QueuePair::push_send_cqe(WorkCompletion wc) {
  if (wc.status == WcStatus::kSuccess) {
    if (wc.deliver_at_ns < last_send_cqe_ns_) wc.deliver_at_ns = last_send_cqe_ns_;
    last_send_cqe_ns_ = wc.deliver_at_ns;
  }
  fabric_->count_error(wc.status);
  send_cq_->push(wc);
}

void QueuePair::complete_send(const SendWr& wr, WcStatus status, uint64_t deliver_at_ns) {
  WorkCompletion wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = wr.opcode;
  wc.status = status;
  wc.byte_len = wr.sge.length;
  wc.peer_node = peer_node();
  wc.qp_num = qp_num_;
  wc.deliver_at_ns = deliver_at_ns;
  push_send_cqe(wc);
}

void QueuePair::post_recv(const RecvWr& wr) {
  if (state() == QpState::kError) {
    // Verbs: WRs posted to an ERROR-state QP flush immediately.
    std::scoped_lock lk(recv_mu_);
    WorkCompletion wc;
    wc.wr_id = wr.wr_id;
    wc.opcode = Opcode::kRecv;
    wc.status = WcStatus::kFlushError;
    wc.peer_node = peer_node();
    wc.qp_num = qp_num_;
    wc.deliver_at_ns = now_ns();
    push_recv_cqe(wc);
    return;
  }
  posted_recvs_.push(wr);
}

void QueuePair::set_error() {
  QpState expected = QpState::kRts;
  if (!state_.compare_exchange_strong(expected, QpState::kError,
                                      std::memory_order_acq_rel))
    return;  // already in ERROR
  // Flush outstanding RECVs with kFlushError. The peer's posting threads are
  // the normal consumers of posted_recvs_, so serialise with them via recv_mu_.
  // (A recv posted concurrently with the transition may survive in the queue;
  // it simply remains posted after reset, as with real HW timing windows.)
  std::scoped_lock lk(recv_mu_);
  const uint64_t now = now_ns();
  RecvWr r;
  while (posted_recvs_.pop(r)) {
    WorkCompletion wc;
    wc.wr_id = r.wr_id;
    wc.opcode = Opcode::kRecv;
    wc.status = WcStatus::kFlushError;
    wc.peer_node = peer_node();
    wc.qp_num = qp_num_;
    wc.deliver_at_ns = now;
    push_recv_cqe(wc);
  }
}

bool QueuePair::reset() {
  QpState expected = QpState::kError;
  return state_.compare_exchange_strong(expected, QpState::kRts,
                                        std::memory_order_acq_rel);
}

bool QueuePair::post_send(const SendWr& wr) {
  DARRAY_ASSERT_MSG(peer_ != nullptr, "QP not connected");
  if (!device_->validate_local(wr.sge)) {
    DLOG_ERROR("post_send: local SGE validation failed (lkey=%u len=%u)", wr.sge.lkey,
               wr.sge.length);
    return false;
  }

  const uint64_t now = now_ns();
  if (state() == QpState::kError) {
    complete_send(wr, WcStatus::kFlushError, now);
    return true;
  }

  uint64_t one_way = fabric_->one_way_ns(wr.sge.length);
  WcStatus status = WcStatus::kSuccess;

  // Chaos: decide this WR's fate before any bytes move. An injected error
  // means the transfer did not happen (the transport gave up), so retrying it
  // is always safe; an injected delay only stretches the completion deadline.
  if (chaos::FaultInjector* inj = fabric_->fault_injector()) {
    const chaos::FaultDecision d =
        inj->decide(qp_num_, device_->node_id(), peer_node(), wr.opcode, now);
    status = d.status;
    one_way += d.extra_latency_ns;
  }

  if (status == WcStatus::kSuccess) {
    switch (wr.opcode) {
      case Opcode::kWrite: {
        std::byte* dst = peer_->device_->translate(wr.remote_addr, wr.rkey, wr.sge.length);
        if (!dst) {
          status = WcStatus::kRemoteAccessError;
          break;
        }
        // The "DMA": bytes land in the peer's registered memory with no peer CPU
        // involvement. Visibility races are prevented by the coherence protocol,
        // which always chases a data WRITE with a two-sided notification.
        std::memcpy(dst, wr.sge.addr, wr.sge.length);
        fabric_->count(Opcode::kWrite, wr.sge.length);
        break;
      }
      case Opcode::kRead: {
        const std::byte* src = peer_->device_->translate(wr.remote_addr, wr.rkey, wr.sge.length);
        if (!src) {
          status = WcStatus::kRemoteAccessError;
          break;
        }
        std::memcpy(const_cast<std::byte*>(wr.sge.addr), src, wr.sge.length);
        fabric_->count(Opcode::kRead, wr.sge.length);
        break;
      }
      case Opcode::kSend: {
        // An empty receive ring makes the target RNR-NAK; the RC transport
        // retries on its rnr_retry timer, so wait (bounded, without holding
        // the peer's recv lock) for the receiver to re-arm. Exhaustion
        // completes with kRnrError and stops the QP, as real RC does; the
        // comm layer then recovers with backoff + re-post.
        const uint64_t rnr_deadline = now + fabric_->config().rnr_retry_budget_ns;
        for (;;) {
          bool delivered = false;
          {
            std::scoped_lock lk(peer_->recv_mu_);
            RecvWr recv;
            if (peer_->posted_recvs_.pop(recv)) {
              DARRAY_ASSERT_MSG(recv.length >= wr.sge.length, "recv buffer too small");
              std::memcpy(recv.addr, wr.sge.addr, wr.sge.length);
              // Counted before the receiver can see the message, so a reader
              // that waits for delivery also sees the count.
              fabric_->count(Opcode::kSend, wr.sge.length);
              WorkCompletion rwc;
              rwc.wr_id = recv.wr_id;
              rwc.opcode = Opcode::kRecv;
              rwc.status = WcStatus::kSuccess;
              rwc.byte_len = wr.sge.length;
              rwc.peer_node = device_->node_id();
              rwc.qp_num = peer_->qp_num_;
              rwc.deliver_at_ns = now + one_way;
              peer_->push_recv_cqe(rwc);
              delivered = true;
            }
          }
          if (delivered) break;
          // No fast-exit while the peer QP sits in ERROR: the peer's
          // progress thread resets it within its backoff cap and re-arms the
          // ring right after, both far inside the budget. Exiting early
          // instead livelocks two mutually-recovering peers, each erroring
          // the other's replays while it is itself mid-backoff.
          if (now_ns() >= rnr_deadline) {
            DLOG_DEBUG("post_send: RNR — peer node %u has no posted RECV", peer_node());
            status = WcStatus::kRnrError;
            break;
          }
          // The peer may be waiting on our ring in the same way.
          device_->on_wait();
          // Spin briefly for the common re-arm-in-microseconds case, then
          // yield: the receiver's progress thread needs the core to repost.
          if (now_ns() - now < 50'000)
            cpu_relax();
          else
            std::this_thread::yield();
        }
        break;
      }
      case Opcode::kRecv:
        DARRAY_UNREACHABLE("kRecv is not a send opcode");
    }
  }

  // RC semantics: the first completion-with-error moves the QP to ERROR, so
  // every WR behind it flushes instead of overtaking it — the comm layer's
  // in-order recovery depends on this.
  if (status != WcStatus::kSuccess) set_error();

  if (wr.signaled || status != WcStatus::kSuccess) {
    // READ completes after a round trip carrying the payload; a signaled
    // WRITE completes on the remote HCA's transport ACK (also a round trip).
    // SENDs complete locally — selective signaling only recycles buffers.
    // Errors are detected at the transport and complete without the payload
    // round trip.
    const bool round_trip = status == WcStatus::kSuccess &&
                            (wr.opcode == Opcode::kRead || wr.opcode == Opcode::kWrite);
    complete_send(wr, status, round_trip ? now + 2 * one_way : now);
  }
  return true;
}

}  // namespace darray::rdma
