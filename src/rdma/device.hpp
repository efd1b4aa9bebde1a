// Per-node "RNIC": owns the registered-memory-region table and validates all
// remote access against it, like the real NIC's MTT/MPT would.
#pragma once

#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <unordered_map>

#include "rdma/verbs.hpp"

namespace darray::rdma {

class Device {
 public:
  explicit Device(uint32_t node_id) : node_id_(node_id) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  uint32_t node_id() const { return node_id_; }

  MemoryRegion reg_mr(void* addr, size_t length);
  void dereg_mr(uint32_t lkey);

  // Validate and translate a remote access; nullptr on rkey/bounds failure.
  std::byte* translate(uint64_t remote_addr, uint32_t rkey, size_t len) const;

  // Validate a local SGE against its lkey (posting-side check).
  bool validate_local(const Sge& sge) const;

  // Run by a poster on this device while it waits for a peer (the RNR retry
  // loop). The comm layer uses it to keep this node's receive rings armed
  // when the poster holds their receive role, whichever thread that is, so
  // two nodes that wait on each other's rings both make progress. Set before
  // any QP on this device posts; the hook itself must only poll.
  void set_wait_hook(std::function<void()> hook) { wait_hook_ = std::move(hook); }
  void on_wait() const {
    if (wait_hook_) wait_hook_();
  }

 private:
  const uint32_t node_id_;
  mutable std::shared_mutex mu_;  // registration is rare; lookups are frequent
  uint32_t next_key_ = 1;
  std::unordered_map<uint32_t, MemoryRegion> mrs_;  // keyed by lkey (== rkey here)
  std::function<void()> wait_hook_;
};

}  // namespace darray::rdma
