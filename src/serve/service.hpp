// KvsService: the per-cluster front door. Owns one SessionRegistry and one
// RequestDispatcher per node, installs the kClientReq/kClientResp sinks on
// every NodeRuntime, and moves requests/responses between session cores and
// owner dispatchers — over the fabric when owner != origin, directly when the
// owner is local (the simulated fabric has no self-QP; a caller bound to that
// node runs the request itself, RequestDispatcher::offer_local).
//
// One front door per cluster: the service claims every node's client-message
// sink. Create it after the cluster is up; shut it down (or let the last
// handle drop) before the cluster stops.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "serve/backend.hpp"
#include "serve/config.hpp"
#include "serve/counters.hpp"
#include "serve/dispatcher.hpp"
#include "serve/session.hpp"

namespace darray::rt {
class Cluster;
}

namespace darray::serve {

namespace detail {

class ServiceImpl {
 public:
  ServiceImpl(rt::Cluster& cluster, const ServeConfig& cfg,
              std::unique_ptr<KvsBackend> backend);
  ~ServiceImpl();

  void start();
  void shutdown();  // idempotent

  std::shared_ptr<SessionCore> open_session(rt::NodeId node, uint32_t window,
                                            uint64_t timeout_ns);
  void close_session(const SessionCore& s);

  // Route one request from session `s`. Returns kOk when the request is in
  // flight or already answered (the response arrives via s.deliver; an
  // owner-local request run on the caller is delivered before this returns),
  // kTooLarge / kMalformed on guard failures, kBusy when the local owner shed
  // it synchronously, kUnavailable once shutdown() has begun.
  //
  // `trace`/`t_submit` are the journey identity stamped by the client; both 0
  // when journey tracing is off. On the wire they piggyback on free MsgHeader
  // fields (trace, and t_submit split across aux/rkey).
  Status submit(SessionCore& s, uint64_t seq, const Request& req, uint64_t trace = 0,
                uint64_t t_submit = 0);

  rt::Cluster& cluster() { return cluster_; }
  const ServeConfig& config() const { return cfg_; }
  ServeCounters& counters() { return *counters_; }
  std::shared_ptr<const ServeCounters> counters_ptr() const { return counters_; }

 private:
  void on_client_msg(rt::NodeId n, net::RpcMessage&& m);
  void respond(rt::NodeId from, const Job& job, Response&& r);
  void deliver_local(rt::NodeId n, uint32_t session, uint64_t seq, Response&& r);

  rt::Cluster& cluster_;
  const ServeConfig cfg_;
  std::unique_ptr<KvsBackend> backend_;
  std::shared_ptr<ServeCounters> counters_;
  size_t max_payload_ = 0;
  std::vector<std::unique_ptr<SessionRegistry>> registries_;   // per node
  std::vector<std::unique_ptr<RequestDispatcher>> dispatchers_;  // per node
  std::atomic<bool> down_{false};
};

}  // namespace detail

// Copyable handle; the service shuts down when the last handle (and last
// connected Client) drops.
class KvsService {
 public:
  KvsService() = default;

  template <typename Kvs>
  static KvsService create(rt::Cluster& cluster, Kvs kvs, const ServeConfig& cfg = {}) {
    cfg.validate();
    KvsService s;
    s.impl_ = std::make_shared<detail::ServiceImpl>(
        cluster, cfg, std::make_unique<KvsBackendAdapter<Kvs>>(std::move(kvs)));
    s.impl_->start();
    return s;
  }

  explicit operator bool() const { return impl_ != nullptr; }

  // Explicit teardown (also implicit on last-handle destruction).
  void shutdown() {
    if (impl_) impl_->shutdown();
  }

  ServeCounters& counters() { return impl_->counters(); }
  const ServeConfig& config() const { return impl_->config(); }
  rt::Cluster& cluster() { return impl_->cluster(); }

  detail::ServiceImpl& impl() { return *impl_; }
  std::shared_ptr<detail::ServiceImpl> impl_ptr() const { return impl_; }

 private:
  std::shared_ptr<detail::ServiceImpl> impl_;
};

}  // namespace darray::serve
