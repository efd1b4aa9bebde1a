// The simulated switch: creates devices, wires reliable-connected queue
// pairs, executes transfers, injects latency (and, when a FaultInjector is
// attached, faults), and counts traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/spinlock.hpp"
#include "rdma/completion_queue.hpp"
#include "rdma/device.hpp"
#include "rdma/queue_pair.hpp"
#include "rdma/verbs.hpp"

namespace darray::chaos {
class FaultInjector;
}

namespace darray::rdma {

struct FabricConfig {
  uint64_t latency_ns = 0;     // one-way base latency per message
  double ns_per_byte = 0.0;    // bandwidth model (100 Gbps ≈ 0.08 ns/B)
  // RNR-NAK absorption: how long a SEND waits for the receiver to re-arm its
  // ring before completing with kRnrError (models the RC transport's
  // rnr_retry timer; exhaustion errors the QP, as real RC does). Must exceed
  // the comm layer's backoff cap — during recovery the receiver re-arms only
  // after its next backoff expiry — and leave slack for OS descheduling of
  // the receiver's progress thread on oversubscribed hosts.
  uint64_t rnr_retry_budget_ns = 100'000'000;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig cfg = {}) : cfg_(cfg) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  Device* create_device(uint32_t node_id);

  // Create an RC connection; returns {a-side, b-side}. The caller supplies
  // each side's CQs (CQs may be shared across QPs, as with real verbs).
  std::pair<QueuePair*, QueuePair*> connect(Device* a, CompletionQueue* a_send_cq,
                                            CompletionQueue* a_recv_cq, Device* b,
                                            CompletionQueue* b_send_cq,
                                            CompletionQueue* b_recv_cq);

  const FabricConfig& config() const { return cfg_; }

  uint64_t one_way_ns(size_t bytes) const {
    return cfg_.latency_ns + static_cast<uint64_t>(cfg_.ns_per_byte * static_cast<double>(bytes));
  }

  // Attach a chaos fault injector (non-owning; nullptr disables injection).
  // Set before traffic starts; every posted WR consults it.
  void set_fault_injector(chaos::FaultInjector* injector) { injector_ = injector; }
  chaos::FaultInjector* fault_injector() const { return injector_; }

  // Comm-layer hook: record one recovery re-post so fault activity is visible
  // in a single place alongside the error counters.
  void count_retry() { retries_.fetch_add(1, std::memory_order_relaxed); }

  // Comm-layer hook: n protocol frames were packed into one wire SEND.
  void count_coalesced(uint64_t n) {
    coalesced_frames_.fetch_add(n, std::memory_order_relaxed);
  }

  // Comm-layer hook: one rendezvous pull of `bytes` completed (the READ WRs
  // themselves are already in reads/bytes_read; this breaks the rendezvous
  // subset out so bulk accounting can distinguish it from eager traffic).
  void count_rndz(uint64_t bytes) {
    rndz_transfers_.fetch_add(1, std::memory_order_relaxed);
    bytes_rndz_.fetch_add(bytes, std::memory_order_relaxed);
  }

  FabricStats stats() const;
  void reset_stats();

 private:
  friend class QueuePair;

  void count(Opcode op, size_t bytes);
  void count_error(WcStatus status);

  FabricConfig cfg_;
  chaos::FaultInjector* injector_ = nullptr;
  SpinLock mu_;  // guards topology construction only
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<QueuePair>> qps_;

  std::atomic<uint64_t> writes_{0}, reads_{0}, sends_{0};
  std::atomic<uint64_t> bytes_written_{0}, bytes_read_{0}, bytes_sent_{0};
  std::atomic<uint64_t> wc_errors_{0}, rnr_events_{0}, retries_{0}, flushed_wrs_{0};
  std::atomic<uint64_t> coalesced_frames_{0}, batched_posts_{0};
  std::atomic<uint64_t> rndz_transfers_{0}, bytes_rndz_{0};
};

}  // namespace darray::rdma
