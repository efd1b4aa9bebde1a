// Per-node request dispatcher: bounded admission, per-session FIFO execution
// across a worker pool, and the owner-side hot-key cache.
//
// Two ways in. The progress thread's kClientReq sink and unbound local
// callers (the TCP gateway, open-loop load generators, a test's main
// thread) call offer() — a constant-time admit-or-shed decision; dedicated
// worker threads, bound to the node's thread context, pop the work. An application thread
// bound to this node submitting for one of its own sessions calls
// offer_local(), which runs the job on the caller when the session has
// nothing queued or running here — no hand-off, and never shed — and is
// offer() otherwise. Both paths run one job body (run_job): execute against
// the KVS backend, count, then hand the response to the service's respond
// callback. Per-session ordering holds on both: a session's next request
// becomes runnable only after its previous one completes.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/profiler.hpp"
#include "serve/backend.hpp"
#include "serve/config.hpp"
#include "serve/counters.hpp"
#include "serve/protocol.hpp"

namespace darray::rt {
class Cluster;
}

namespace darray::serve {

struct Job {
  uint64_t session_key = 0;  // origin<<32 | session id — FIFO domain
  uint16_t origin = 0;       // node whose session issued the request
  uint32_t session = 0;
  uint64_t seq = 0;
  ClientOp op = ClientOp::kGet;
  std::string key;
  std::string value;
  // Journey stamps (obs v4): trace/t_submit arrive from the client (on the
  // wire: MsgHeader.trace + aux/rkey); the dispatcher fills the rest.
  uint64_t trace = 0;
  uint64_t t_submit = 0;
  uint64_t t_admit = 0;
  uint64_t t_dequeue = 0;
};

class RequestDispatcher {
 public:
  using RespondFn = std::function<void(const Job&, Response&&)>;

  RequestDispatcher(rt::Cluster& cluster, rt::NodeId node, const ServeConfig& cfg,
                    KvsBackend& backend, ServeCounters& counters, RespondFn respond);
  ~RequestDispatcher();

  void start();
  void stop();

  // Admission control. Returns true if the job was queued; false means the
  // dispatcher is at capacity and the caller must shed (the job is left
  // intact — capacity is checked before anything is moved). Constant-time,
  // safe from inside engine passes.
  bool offer(Job&& job);

  // offer() for a request whose session lives on this node. Runs the job on
  // the calling thread (and returns true once it has responded) when the
  // caller is an application thread bound to this node, the session has no
  // job queued or running here, and the dispatcher is not stopping; the
  // inline job counts as queued while it runs but is never shed. Otherwise
  // it is offer().
  bool offer_local(Job&& job);

  uint64_t executed() const { return executed_; }

 private:
  struct SessionQueue {
    std::deque<Job> jobs;
    bool running = false;  // a worker is executing this session's head job
  };

  DARRAY_PROFILE_ANCHOR void worker_main(uint32_t idx);
  // Admit `job` behind its session (mu_ held). False: the queue is full.
  bool enqueue_locked(Job&& job);
  // The one job body, for a job whose session is marked running: dequeue
  // stamp, execute, backend stamp, counters, respond, then release the
  // session (re-arm it if more of its jobs are queued).
  void run_job(Job& job);
  void execute(Job& job, Response& out);

  // Hot-key cache (owner side). `heat_` is a fixed array of hashed read
  // counters — no allocation on the count path; `hot_` holds the promoted
  // values. `hot_epoch_` bumps on every serve-path write: a promotion is only
  // installed if no write happened between the backend read and the install,
  // which closes the stale-promotion race (read old value → writer updates
  // and invalidates → stale promotion would resurrect the old value).
  bool hot_lookup(const std::string& key, std::string& out);
  void hot_note_read(const std::string& key, const std::string& value,
                     uint64_t epoch_before);
  void hot_invalidate(const std::string& key);

  rt::Cluster& cluster_;
  const rt::NodeId node_;
  const ServeConfig& cfg_;
  KvsBackend& backend_;
  ServeCounters& counters_;
  RespondFn respond_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, SessionQueue> by_session_;  // guarded by mu_
  std::deque<uint64_t> ready_;                             // guarded by mu_
  uint32_t queued_ = 0;  // jobs queued + executing, guarded by mu_
  bool stopping_ = false;

  struct HotEntry {
    std::string value;
    uint64_t hits = 0;
  };
  std::mutex hot_mu_;
  std::unordered_map<std::string, HotEntry> hot_;  // guarded by hot_mu_
  std::array<uint32_t, 1024> heat_{};              // guarded by hot_mu_
  uint64_t hot_epoch_ = 0;                         // guarded by hot_mu_

  std::vector<std::thread> workers_;
  std::atomic<uint64_t> executed_{0};
};

}  // namespace darray::serve
