// A simulated cluster node: its RNIC device, communication layer (whose one
// progress thread is the node's only service thread), coherence engine, and
// per-array state.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/spinlock.hpp"
#include "net/comm_layer.hpp"
#include "runtime/array_state.hpp"
#include "runtime/engine_shard.hpp"
#include "runtime/reduce_board.hpp"
#include "runtime/stats.hpp"

namespace darray::rt {

class Cluster;

inline constexpr size_t kMaxArrays = 256;

class NodeRuntime {
 public:
  NodeRuntime(Cluster* cluster, NodeId id, rdma::Device* device, const ClusterConfig& cfg);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  NodeId id() const { return id_; }
  Cluster& cluster() { return *cluster_; }
  net::CommLayer& comm() { return *comm_; }
  rdma::Device* device() { return device_; }

  // Hand an application slow-path request to the engine.
  void submit_local(LocalRequest* r) { shard_.submit_local(r); }

  // A thread bound to this node: submit `r`, then wait for it. While it
  // waits it takes this node's receive role when it is free, so the reply
  // to its miss is dispatched, and the access performed, on this thread
  // (CommLayer::wait).
  void submit_and_wait(LocalRequest* r) {
    submit_local(r);
    comm_->wait(r->done);
  }

  // Reduction-tree mailbox (src/compute collectives): engine passes deposit
  // inbound kReducePart messages, the node's collective caller awaits them.
  ReduceBoard& reduce_board() { return reduce_board_; }

  // Client-serving plane (src/serve): the front door installs a sink for
  // kClientReq/kClientResp deliveries, keeping the runtime → serve dependency
  // inverted. The sink runs inside engine passes (on a submitter running the
  // pass inline, a waiter holding the receive role, or the progress thread)
  // under a per-node lock (so an uninstall can never race a delivery) and
  // must route without blocking — admission/shed decisions only, never KVS
  // execution. With no sink installed the message is dropped and counted:
  // sessions only exist while a front door is attached.
  using ClientMsgFn = std::function<void(net::RpcMessage&&)>;
  void set_client_msg_handler(ClientMsgFn fn);
  void deliver_client_msg(net::RpcMessage&& m);
  uint64_t client_msgs_dropped() const {
    return client_msgs_dropped_.load(std::memory_order_relaxed);
  }

  void start();
  void stop();

  NodeArrayState* array_state(ArrayId id) {
    return arrays_[id].load(std::memory_order_acquire);
  }
  void install_array(ArrayId id, std::unique_ptr<NodeArrayState> st);

  RuntimeStats runtime_stats() const { return shard_.stats(); }
  CacheRegionStats cache_stats() const { return shard_.region().stats(); }

 private:
  Cluster* cluster_;
  const NodeId id_;
  rdma::Device* device_;
  std::unique_ptr<net::CommLayer> comm_;
  EngineShard shard_;
  std::array<std::atomic<NodeArrayState*>, kMaxArrays> arrays_{};
  std::vector<std::unique_ptr<NodeArrayState>> array_storage_;
  ReduceBoard reduce_board_;
  mutable SpinLock client_mu_;  // guards client_fn_ against uninstall races
  ClientMsgFn client_fn_;
  std::atomic<uint64_t> client_msgs_dropped_{0};
  bool started_ = false;
};

}  // namespace darray::rt
