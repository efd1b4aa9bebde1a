// A synchronous one-sided RMA mesh: every node pair gets a dedicated QP, and
// callers issue blocking WRITE/READ from application threads (serialised per
// source node). This is the MPI-RMA-style substrate the Gemini-like baseline
// engine exchanges its bulk updates over — deliberately simpler than the
// DArray comm layer (no progress thread, no selective signaling).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/assert.hpp"
#include "common/spinlock.hpp"
#include "common/wait.hpp"
#include "rdma/fabric.hpp"

namespace darray::net {

class RmaMesh {
 public:
  RmaMesh(rdma::Fabric& fabric, const std::vector<rdma::Device*>& devices)
      : fabric_(fabric), per_node_(devices.size()) {
    const uint32_t n = static_cast<uint32_t>(devices.size());
    for (uint32_t i = 0; i < n; ++i) {
      per_node_[i].device = devices[i];
      per_node_[i].qps.resize(n, nullptr);
      per_node_[i].cq = std::make_unique<rdma::CompletionQueue>();
    }
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        auto [qa, qb] =
            fabric.connect(devices[a], per_node_[a].cq.get(), per_node_[a].cq.get(),
                           devices[b], per_node_[b].cq.get(), per_node_[b].cq.get());
        per_node_[a].qps[b] = qa;
        per_node_[b].qps[a] = qb;
      }
    }
  }

  rdma::MemoryRegion reg(uint32_t node, void* addr, size_t len) {
    return per_node_[node].device->reg_mr(addr, len);
  }

  // Blocking one-sided WRITE from src's memory into dst's registered region.
  void write(uint32_t src, uint32_t dst, const void* local, uint32_t lkey,
             uint64_t remote_addr, uint32_t rkey, uint32_t len) {
    PerNode& pn = per_node_[src];
    std::scoped_lock lk(pn.mu);
    rdma::SendWr wr;
    wr.opcode = rdma::Opcode::kWrite;
    wr.sge = {static_cast<const std::byte*>(local), len, lkey};
    wr.remote_addr = remote_addr;
    wr.rkey = rkey;
    wr.signaled = true;
    const bool ok = pn.qps[dst]->post_send(wr);
    DARRAY_ASSERT(ok);
    rdma::WorkCompletion wc;
    while (pn.cq->poll({&wc, 1}) == 0) cpu_relax();
    DARRAY_ASSERT(wc.status == rdma::WcStatus::kSuccess);
  }

 private:
  struct PerNode {
    rdma::Device* device = nullptr;
    std::vector<rdma::QueuePair*> qps;
    std::unique_ptr<rdma::CompletionQueue> cq;
    SpinLock mu;
  };

  [[maybe_unused]] rdma::Fabric& fabric_;
  std::vector<PerNode> per_node_;
};

}  // namespace darray::net
