#include "serve/dispatcher.hpp"

#include <chrono>
#include <cstdio>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "core/context.hpp"
#include "kvs/kvs.hpp"  // fnv1a
#include "obs/journey.hpp"
#include "runtime/cluster.hpp"

namespace darray::serve {

RequestDispatcher::RequestDispatcher(rt::Cluster& cluster, rt::NodeId node,
                                     const ServeConfig& cfg, KvsBackend& backend,
                                     ServeCounters& counters, RespondFn respond)
    : cluster_(cluster),
      node_(node),
      cfg_(cfg),
      backend_(backend),
      counters_(counters),
      respond_(std::move(respond)) {}

RequestDispatcher::~RequestDispatcher() { stop(); }

void RequestDispatcher::start() {
  for (uint32_t i = 0; i < cfg_.workers_per_node; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void RequestDispatcher::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Queued jobs are abandoned: their sessions see kTimeout (or the service
  // has already shut down the session plane entirely).
}

bool RequestDispatcher::offer(Job&& job) {
  std::lock_guard lk(mu_);
  if (stopping_) return false;
  return enqueue_locked(std::move(job));
}

bool RequestDispatcher::offer_local(Job&& job) {
  const ThreadCtx& ctx = this_thread_ctx();
  if (ctx.cluster != &cluster_ || ctx.node != node_) return offer(std::move(job));
  {
    std::lock_guard lk(mu_);
    if (stopping_) return false;
    auto [it, fresh] = by_session_.try_emplace(job.session_key);
    // Something of this session is queued or running: FIFO puts this job
    // behind it.
    if (!fresh) return enqueue_locked(std::move(job));
    it->second.running = true;
    ++queued_;
  }
  counters_.inflight.fetch_add(1, std::memory_order_relaxed);
  counters_.reqs_inline.fetch_add(1, std::memory_order_relaxed);
  if (job.trace) job.t_admit = now_ns();  // admitted and dequeued at once
  run_job(job);
  return true;
}

bool RequestDispatcher::enqueue_locked(Job&& job) {
  // Capacity check happens before anything is moved, so a shed leaves `job`
  // valid for the caller's kBusy reply.
  if (cfg_.accept_queue_cap != 0 && queued_ >= cfg_.accept_queue_cap) return false;
  if (job.trace) job.t_admit = now_ns();
  ++queued_;
  counters_.inflight.fetch_add(1, std::memory_order_relaxed);
  SessionQueue& sq = by_session_[job.session_key];
  const uint64_t skey = job.session_key;
  sq.jobs.push_back(std::move(job));
  // A session becomes ready only when its new head can run: nothing running
  // and this is the only queued job. Otherwise the completing job (worker or
  // inline) or an earlier queued job re-arms it.
  if (!sq.running && sq.jobs.size() == 1) {
    ready_.push_back(skey);
    cv_.notify_one();
  }
  return true;
}

void RequestDispatcher::worker_main(uint32_t idx) {
  char tname[16];
  std::snprintf(tname, sizeof tname, "disp.%u.%u", static_cast<unsigned>(node_), idx);
  obs::register_current_thread(tname);
  // Workers execute KVS ops, which issue DArray traffic — they need a bound
  // thread context like any application thread.
  bind_thread(cluster_, node_);
  for (;;) {
    Job job;
    {
      std::unique_lock lk(mu_);
      obs::set_prof_phase(obs::ProfPhase::kIdle);  // parked on the ready cv
      cv_.wait(lk, [&] { return stopping_ || !ready_.empty(); });
      if (stopping_) return;
      const uint64_t skey = ready_.front();
      ready_.pop_front();
      SessionQueue& sq = by_session_[skey];
      DARRAY_ASSERT(!sq.running && !sq.jobs.empty());
      sq.running = true;
      job = std::move(sq.jobs.front());
      sq.jobs.pop_front();
    }
    obs::set_prof_phase(obs::ProfPhase::kBusy);
    run_job(job);
  }
}

void RequestDispatcher::run_job(Job& job) {
  if (job.trace) job.t_dequeue = now_ns();
  Response resp;
  // Profile-context op tag: samples taken while this request executes fold
  // under (busy:get) / (busy:set) instead of the bare worker loop.
  {
    const obs::OpKind k = job.op == ClientOp::kGet ? obs::OpKind::kGet : obs::OpKind::kSet;
    obs::ProfOpScope prof_op(static_cast<uint8_t>(k));
    execute(job, resp);
  }
  if (job.trace) {
    resp.j.t_admit = job.t_admit;
    resp.j.t_dequeue = job.t_dequeue;
    resp.j.t_backend = now_ns();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  counters_.completed.fetch_add(1, std::memory_order_relaxed);
  counters_.inflight.fetch_sub(1, std::memory_order_relaxed);
  respond_(job, std::move(resp));

  std::lock_guard lk(mu_);
  --queued_;
  auto it = by_session_.find(job.session_key);
  DARRAY_ASSERT(it != by_session_.end());
  it->second.running = false;
  if (it->second.jobs.empty()) {
    by_session_.erase(it);  // keep the table bounded by live sessions
  } else {
    ready_.push_back(job.session_key);
    cv_.notify_one();
  }
}

void RequestDispatcher::execute(Job& job, Response& out) {
  switch (job.op) {
    case ClientOp::kGet: {
      if (cfg_.hot_key_enabled && hot_lookup(job.key, out.value)) {
        counters_.hot_hits.fetch_add(1, std::memory_order_relaxed);
        out.status = Status::kOk;
        out.j.flags |= obs::RequestJourney::kFlagHotHit;
        return;
      }
      uint64_t epoch_before = 0;
      if (cfg_.hot_key_enabled) {
        std::lock_guard lk(hot_mu_);
        epoch_before = hot_epoch_;
      }
      if (cfg_.worker_delay_ns)
        std::this_thread::sleep_for(std::chrono::nanoseconds(cfg_.worker_delay_ns));
      out.status = backend_.get(job.key, out.value);
      if (out.status == Status::kOk && cfg_.hot_key_enabled)
        hot_note_read(job.key, out.value, epoch_before);
      return;
    }
    case ClientOp::kPut: {
      if (cfg_.worker_delay_ns)
        std::this_thread::sleep_for(std::chrono::nanoseconds(cfg_.worker_delay_ns));
      // Invalidate before the backend write becomes visible to responders:
      // a reader racing the put may still see the old value (that is just
      // read/write concurrency), but once the put's response is sent no get
      // can be served stale from the cache.
      if (cfg_.hot_key_enabled) hot_invalidate(job.key);
      out.status = backend_.put(job.key, job.value);
      if (cfg_.hot_key_enabled) hot_invalidate(job.key);
      return;
    }
    case ClientOp::kDelete: {
      if (cfg_.worker_delay_ns)
        std::this_thread::sleep_for(std::chrono::nanoseconds(cfg_.worker_delay_ns));
      if (cfg_.hot_key_enabled) hot_invalidate(job.key);
      out.status = backend_.erase(job.key);
      if (cfg_.hot_key_enabled) hot_invalidate(job.key);
      return;
    }
  }
  out.status = Status::kMalformed;
}

bool RequestDispatcher::hot_lookup(const std::string& key, std::string& out) {
  std::lock_guard lk(hot_mu_);
  auto it = hot_.find(key);
  if (it == hot_.end()) return false;
  ++it->second.hits;
  out = it->second.value;
  return true;
}

void RequestDispatcher::hot_note_read(const std::string& key, const std::string& value,
                                      uint64_t epoch_before) {
  if (value.size() > cfg_.hot_max_value_bytes) return;
  std::lock_guard lk(hot_mu_);
  uint32_t& heat = heat_[kvs::fnv1a(key) % heat_.size()];
  if (++heat < cfg_.hot_promote_threshold) return;
  heat = 0;  // re-earn promotion after eviction/invalidation
  // A write slid in between our backend read and now — `value` may be stale.
  // Skip this promotion; the key will re-qualify from fresh reads.
  if (hot_epoch_ != epoch_before) return;
  if (hot_.size() >= cfg_.hot_max_entries && !hot_.contains(key)) return;
  auto [it, inserted] = hot_.try_emplace(key);
  it->second.value = value;
  if (inserted) counters_.hot_promotions.fetch_add(1, std::memory_order_relaxed);
}

void RequestDispatcher::hot_invalidate(const std::string& key) {
  std::lock_guard lk(hot_mu_);
  ++hot_epoch_;
  if (hot_.erase(key))
    counters_.hot_invalidations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace darray::serve
