// Reliable-connected queue pair for the simulated fabric.
//
// Threading contract (matches how the comm layer uses real QPs):
//   - post_send: one thread at a time (the comm layer's Tx lock holder)
//   - post_recv: only the owning node's receive-role holder (its progress
//     thread, or an application thread waiting on a miss)
// The posted-receive queue is produced by the local role holder and
// consumed by the peer's posting thread during its post_send. Error-state flushes also drain
// it (from whichever thread observed the error), so pops are serialised by
// recv_mu_ rather than by the single-consumer contract alone.
//
// State machine: QPs come out of Fabric::connect in RTS. Any completion with
// an error status moves the QP to ERROR — posted RECVs flush with
// kFlushError, and every WR posted while in ERROR flushes likewise, matching
// verbs semantics where an errored RC QP stops transmitting. reset() stands
// in for the RESET→INIT→RTR→RTS reconnect cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "common/mpsc_queue.hpp"
#include "common/spinlock.hpp"
#include "rdma/verbs.hpp"

namespace darray::rdma {

class Device;
class Fabric;
class CompletionQueue;

class QueuePair {
 public:
  QueuePair(Fabric* fabric, Device* device, CompletionQueue* send_cq,
            CompletionQueue* recv_cq, uint32_t qp_num)
      : fabric_(fabric),
        device_(device),
        send_cq_(send_cq),
        recv_cq_(recv_cq),
        qp_num_(qp_num) {}

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  // Post a work request toward the peer. Executes the transfer synchronously
  // (the "DMA"), with latency surfaced through completion deadlines. Returns
  // false only on local validation failure; transport-level failures surface
  // as error completions (which move the QP to ERROR).
  bool post_send(const SendWr& wr);

  // Doorbell-batched posting: submit a run of work requests with one call
  // (one doorbell ring on real hardware). WRs execute in span order, so
  // per-QP FIFO is exactly as if each were posted individually — chaos-mode
  // retry replay stays frame-exact. Returns false if any WR failed local
  // validation (the rest are still attempted, as verbs does with a bad_wr
  // chain cut).
  bool post_send(std::span<const SendWr> wrs);

  // Post a receive buffer. On an ERROR-state QP the buffer flushes straight
  // back through the recv CQ with kFlushError.
  void post_recv(const RecvWr& wr);

  QpState state() const { return state_.load(std::memory_order_acquire); }

  // RTS → ERROR: flush all posted RECVs to the recv CQ with kFlushError.
  // Idempotent; callable from any thread.
  void set_error();

  // ERROR → RTS. Posted RECVs were flushed on the transition, so the owner
  // re-posts them (the comm layer's receive-role holder does this on the
  // flush CQEs).
  // Returns true when the QP was in ERROR.
  bool reset();

  uint32_t qp_num() const { return qp_num_; }
  uint32_t peer_node() const;
  Device* device() const { return device_; }
  CompletionQueue* send_cq() const { return send_cq_; }
  CompletionQueue* recv_cq() const { return recv_cq_; }
  Fabric& fabric() const { return *fabric_; }

 private:
  friend class Fabric;

  // Push a completion onto this QP's recv CQ, clamping the deadline so the
  // QP's recv-CQE timestamps are monotone (per-QP FIFO under sorted-holdback
  // CQs). Caller holds recv_mu_.
  void push_recv_cqe(WorkCompletion wc);

  // Push onto the send CQ with the same clamp; poster thread only.
  void push_send_cqe(WorkCompletion wc);

  void complete_send(const SendWr& wr, WcStatus status, uint64_t deliver_at_ns);

  Fabric* fabric_;
  Device* device_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  const uint32_t qp_num_;
  QueuePair* peer_ = nullptr;  // wired by Fabric::connect
  MpscQueue<RecvWr> posted_recvs_;

  std::atomic<QpState> state_{QpState::kRts};
  SpinLock recv_mu_;             // serialises posted_recvs_ pops + recv-CQE pushes
  uint64_t last_send_cqe_ns_ = 0;  // poster-thread private
  uint64_t last_recv_cqe_ns_ = 0;  // guarded by recv_mu_
};

}  // namespace darray::rdma
