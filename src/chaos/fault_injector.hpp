// Deterministic fault injection for the simulated fabric.
//
// The fabric consults the injector on every posted WR. Decisions are drawn
// from a per-QP xoshiro stream seeded from (plan.seed, qp_num), and each QP is
// posted to by one thread at a time (the owning node's Tx lock holder), so the
// decision sequence a QP sees depends only on the seed and the sequence of
// WRs it posts — never on cross-thread interleaving. Node outage windows are
// evaluated against a shared epoch (the first WR the injector observes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/rng.hpp"
#include "common/spinlock.hpp"
#include "rdma/verbs.hpp"

namespace darray::chaos {

struct FaultDecision {
  rdma::WcStatus status = rdma::WcStatus::kSuccess;
  uint64_t extra_latency_ns = 0;

  bool faulted() const {
    return status != rdma::WcStatus::kSuccess || extra_latency_ns != 0;
  }
};

// Injector-side event counts (what was *injected*; the fabric's FabricStats
// counts what the stack *observed*, including genuine errors).
struct FaultCounters {
  uint64_t wc_errors = 0;
  uint64_t rnr_rejections = 0;
  uint64_t delays = 0;
  uint64_t blackholed = 0;
  uint64_t paused = 0;

  uint64_t total() const {
    return wc_errors + rnr_rejections + delays + blackholed + paused;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Decide the fate of one WR about to be posted on `qp_num` from `src_node`
  // toward `dst_node` at monotonic time `now`. Thread contract: concurrent
  // calls are fine as long as each qp_num is always passed by the same thread
  // (which is the fabric's posting contract).
  FaultDecision decide(uint32_t qp_num, uint32_t src_node, uint32_t dst_node,
                       rdma::Opcode op, uint64_t now);

  const FaultPlan& plan() const { return plan_; }
  FaultCounters counters() const;

 private:
  struct QpStream {
    explicit QpStream(uint64_t seed) : rng(seed) {}
    Xoshiro256 rng;
    uint64_t rnr_until_ns = 0;
  };

  QpStream& stream(uint32_t qp_num);
  uint64_t epoch(uint64_t now);

  const FaultPlan plan_;
  std::atomic<uint64_t> epoch_ns_{0};

  SpinLock mu_;  // guards growth of streams_; entries are thread-private after
  std::vector<std::unique_ptr<QpStream>> streams_;

  std::atomic<uint64_t> wc_errors_{0}, rnr_rejections_{0}, delays_{0},
      blackholed_{0}, paused_{0};
};

}  // namespace darray::chaos
