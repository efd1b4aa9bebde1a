#include "runtime/node.hpp"

#include "common/assert.hpp"
#include "runtime/cluster.hpp"

namespace darray::rt {

NodeRuntime::NodeRuntime(Cluster* cluster, NodeId id, rdma::Device* device,
                         const ClusterConfig& cfg)
    : cluster_(cluster), id_(id), device_(device) {
  // The receive-role holder (the progress thread, or a waiter) dispatches to
  // the owning shard, and once per receive iteration runs the passes
  // submitters left.
  comm_ = std::make_unique<net::CommLayer>(
      id, cfg.num_nodes, cfg, device,
      [this](net::RpcMessage&& m) { shard_for_chunk(m.hdr.chunk).submit_rpc(std::move(m)); },
      [this] {
        net::CommLayer::Progress p;
        for (auto& sh : shards_) p |= sh->run_leftover();
        return p;
      });
  comm_->set_error_handler(
      [this](const net::CommError& err) { cluster_->handle_comm_error(id_, err); });
  for (uint32_t i = 0; i < cfg.runtime_threads_per_node; ++i)
    shards_.push_back(std::make_unique<EngineShard>(this, cfg, device, &comm_->bell()));
}

NodeRuntime::~NodeRuntime() { stop(); }

void NodeRuntime::start() {
  DARRAY_ASSERT(!started_);
  started_ = true;
  comm_->start();
  for (auto& sh : shards_) sh->start();
}

void NodeRuntime::stop() {
  if (!started_) return;
  // Submissions from here on ring the progress thread, which runs them until
  // the comm layer stops.
  for (auto& sh : shards_) sh->stop();
  comm_->stop();
  started_ = false;
}

void NodeRuntime::set_client_msg_handler(ClientMsgFn fn) {
  std::lock_guard lk(client_mu_);
  client_fn_ = std::move(fn);
}

void NodeRuntime::deliver_client_msg(net::RpcMessage&& m) {
  // Delivery holds the same lock as install/uninstall: once
  // set_client_msg_handler(nullptr) returns, no engine pass is inside the
  // old sink. The critical section is one routing decision — a queue push or
  // a shed reply — so contention between engine passes stays negligible.
  std::lock_guard lk(client_mu_);
  if (!client_fn_) {
    client_msgs_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  client_fn_(std::move(m));
}

void NodeRuntime::install_array(ArrayId id, std::unique_ptr<NodeArrayState> st) {
  DARRAY_ASSERT(id < kMaxArrays);
  DARRAY_ASSERT(arrays_[id].load(std::memory_order_relaxed) == nullptr);
  arrays_[id].store(st.get(), std::memory_order_release);
  array_storage_.push_back(std::move(st));
}

}  // namespace darray::rt
