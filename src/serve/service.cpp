#include "serve/service.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "kvs/kvs.hpp"  // fnv1a
#include "obs/journey.hpp"
#include "net/comm_layer.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node.hpp"

namespace darray::serve::detail {

namespace {

uint64_t session_key_of(uint16_t origin, uint32_t session) {
  return (uint64_t{origin} << 32) | session;
}

}  // namespace

ServiceImpl::ServiceImpl(rt::Cluster& cluster, const ServeConfig& cfg,
                         std::unique_ptr<KvsBackend> backend)
    : cluster_(cluster),
      cfg_(cfg),
      backend_(std::move(backend)),
      counters_(std::make_shared<ServeCounters>()) {
  max_payload_ =
      cluster_.node(0).comm().max_msg_bytes() - sizeof(net::MsgHeader);
  register_serve_counters(cluster_.stats_registry(), counters_);
  // The collector is process-global (one front door per cluster, one cluster
  // per bench/test process): the service owns its retention policy.
  obs::journey_collector().configure(cfg_.journey_enabled, cfg_.journey_retain_cap,
                                     cfg_.journey_slow_floor_ns);
}

ServiceImpl::~ServiceImpl() { shutdown(); }

void ServiceImpl::start() {
  const uint32_t n = cluster_.num_nodes();
  registries_.reserve(n);
  dispatchers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    registries_.push_back(std::make_unique<SessionRegistry>());
    dispatchers_.push_back(std::make_unique<RequestDispatcher>(
        cluster_, i, cfg_, *backend_, *counters_,
        [this, i](const Job& job, Response&& r) { respond(i, job, std::move(r)); }));
  }
  for (uint32_t i = 0; i < n; ++i) {
    dispatchers_[i]->start();
    cluster_.node(i).set_client_msg_handler(
        [this, i](net::RpcMessage&& m) { on_client_msg(i, std::move(m)); });
  }
}

void ServiceImpl::shutdown() {
  if (down_.exchange(true)) return;
  // Uninstall the sinks first: set_client_msg_handler holds the delivery
  // lock, so once it returns no engine pass can enter on_client_msg.
  for (uint32_t i = 0; i < cluster_.num_nodes(); ++i)
    cluster_.node(i).set_client_msg_handler(nullptr);
  for (auto& d : dispatchers_) d->stop();
}

std::shared_ptr<SessionCore> ServiceImpl::open_session(rt::NodeId node,
                                                       uint32_t window,
                                                       uint64_t timeout_ns) {
  DARRAY_ASSERT_MSG(!down_.load(), "open_session on a shut-down service");
  counters_->sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return registries_[node]->open(node, window, timeout_ns);
}

void ServiceImpl::close_session(const SessionCore& s) {
  registries_[s.node]->close(s.id);
}

Status ServiceImpl::submit(SessionCore& s, uint64_t seq, const Request& req,
                           uint64_t trace, uint64_t t_submit) {
  if (down_.load(std::memory_order_relaxed)) return Status::kUnavailable;
  if (req.key.empty() || req.key.size() > kMaxKeyLen) return Status::kMalformed;
  if (sizeof(WireReq) + req.key.size() + req.value.size() > max_payload_)
    return Status::kTooLarge;

  const rt::NodeId owner = backend_->owner_of(req.key);
  if (owner == s.node) {
    // Owner-local: no fabric hop (the simulated fabric has no self-QP). A
    // bound application thread of this node runs the job itself when its
    // session has nothing queued (offer_local); any other caller hands it to
    // the dispatcher's queue. A shed is reported synchronously.
    counters_->reqs_local.fetch_add(1, std::memory_order_relaxed);
    Job job;
    job.session_key = session_key_of(static_cast<uint16_t>(s.node), s.id);
    job.origin = static_cast<uint16_t>(s.node);
    job.session = s.id;
    job.seq = seq;
    job.op = req.op;
    job.key = req.key;
    job.value = req.value;
    job.trace = trace;
    job.t_submit = t_submit;
    if (dispatchers_[owner]->offer_local(std::move(job))) {
      counters_->accepted.fetch_add(1, std::memory_order_relaxed);
      return Status::kOk;
    }
    // A dispatcher refuses everything once shutdown() has begun: that is
    // not a shed.
    if (down_.load()) return Status::kUnavailable;
    counters_->shed.fetch_add(1, std::memory_order_relaxed);
    return Status::kBusy;
  }

  counters_->reqs_wire.fetch_add(1, std::memory_order_relaxed);
  net::TxRequest tx;
  tx.dst = static_cast<uint16_t>(owner);
  tx.hdr.type = net::MsgType::kClientReq;
  tx.hdr.txn_id = s.id;
  tx.hdr.addr = seq;
  tx.hdr.chunk = kvs::fnv1a(req.key);  // spreads deliveries across rx threads
  // Journey piggyback: trace rides its own field; t_submit splits across the
  // aux/rkey pair, unused by client messages. Valid cross-node because every
  // simulated node shares one monotonic clock.
  tx.hdr.trace = trace;
  tx.hdr.aux = static_cast<uint32_t>(t_submit >> 32);
  tx.hdr.rkey = static_cast<uint32_t>(t_submit);
  encode_request(tx.payload, req.op, req.key, req.value);
  cluster_.node(s.node).comm().post(std::move(tx));
  return Status::kOk;
}

void ServiceImpl::on_client_msg(rt::NodeId n, net::RpcMessage&& m) {
  if (m.hdr.type == net::MsgType::kClientResp) {
    Response r;
    if (!decode_response(m.payload, r)) return;
    deliver_local(n, m.hdr.txn_id, m.hdr.addr, std::move(r));
    return;
  }

  // kClientReq on the owner node. Runs in an engine pass: decode, then a
  // constant-time admit-or-shed. Never executes KVS work here.
  Job job;
  job.origin = m.hdr.src_node;
  job.session = m.hdr.txn_id;
  job.seq = m.hdr.addr;
  job.session_key = session_key_of(job.origin, job.session);
  job.trace = m.hdr.trace;
  job.t_submit = (uint64_t{m.hdr.aux} << 32) | m.hdr.rkey;
  if (!decode_request(m.payload, job.op, job.key, job.value)) {
    Response r;
    r.status = Status::kMalformed;
    respond(n, job, std::move(r));
    return;
  }
  if (dispatchers_[n]->offer(std::move(job))) {
    counters_->accepted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counters_->shed.fetch_add(1, std::memory_order_relaxed);
  Response r;
  r.status = Status::kBusy;
  respond(n, job, std::move(r));  // job still valid: offer() sheds before moving
}

void ServiceImpl::respond(rt::NodeId from, const Job& job, Response&& r) {
  if (job.trace) r.j.owner = static_cast<uint16_t>(from);
  if (job.origin == from) {
    // No fabric involved, so this holds after shutdown() too: a job that a
    // bound caller was running inline when shutdown began still resolves.
    deliver_local(from, job.session, job.seq, std::move(r));
    return;
  }
  if (down_.load(std::memory_order_relaxed)) return;
  net::TxRequest tx;
  tx.dst = job.origin;
  tx.hdr.type = net::MsgType::kClientResp;
  tx.hdr.txn_id = job.session;
  tx.hdr.addr = job.seq;
  tx.hdr.chunk = job.session_key;  // keep one session's responses on one rx thread
  tx.hdr.trace = job.trace;
  const size_t trailer = job.trace ? sizeof(WireJourney) : 0;
  // Responses must always fit: the value came out of a request-sized blob.
  if (sizeof(WireResp) + r.value.size() + trailer > max_payload_) {
    r.value.clear();
    r.status = Status::kTooLarge;
  }
  encode_response(tx.payload, r.status, r.value, job.trace ? &r.j : nullptr);
  // CommLayer::post is MPSC — legal from dispatcher workers and runtime
  // threads alike.
  cluster_.node(from).comm().post(std::move(tx));
}

void ServiceImpl::deliver_local(rt::NodeId n, uint32_t session, uint64_t seq,
                                Response&& r) {
  // Journeyed response (stamps or owner-side flags present): this entry point
  // is "the origin has the bytes" — the net stage ends here.
  if (r.j.t_backend || r.j.flags || r.j.owner) r.j.t_resp_rx = now_ns();
  auto core = registries_[n]->find(session);
  if (!core || !core->deliver(seq, std::move(r), *counters_))
    counters_->late_responses.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace darray::serve::detail
