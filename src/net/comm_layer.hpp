// The paper's communication layer (Fig. 2, §4.5): per node, an RDMA-request
// queue drained by a Tx pass that posts work to the NIC with selective
// signaling, and one progress thread that polls the completion queues and
// delivers parsed RPC messages to the runtime (application threads waiting
// on a miss help it, below). The paper's separate Tx and Rx threads are one
// polling progress engine here (DESIGN.md §6), and it is the node's only
// service thread: it also runs the engine passes its owner's submitters
// leave (ProgressFn). The QP count is nodes² × 1, independent of the number
// of application threads and engine shards — the paper's n²·c (c =
// networking threads) instead of n²·t.
//
// Who runs the Tx pass (docs/perf.md): post() enqueues, then runs the pass
// itself when it can take the Tx lock without waiting, so an idle link costs
// no thread hop; otherwise it rings the progress thread. An inline pass never
// parks: it leaves to the progress thread what could block (an exhausted
// send arena), backoff-timed recovery and rendezvous pulls/actions. All
// Tx-private state below is touched only under the Tx lock. A runtime engine
// pass posts inside a DeferTx scope: its requests go out in one pass after
// the engine lock is released, so the two locks never nest.
//
// Who consumes the receive CQ (docs/perf.md): a role, not a thread. The
// receive role is a lock taken only with try_lock; its holder runs one
// receive iteration (rx_iteration): repost each receive buffer, dispatch the
// backlog outside the Tx lock, run the owner's leftover passes, then one Tx
// pass. The progress thread takes the role once per loop. An application
// thread waiting on a Completion of its own node takes it too (wait()), so
// the reply to its miss is dispatched, and its access performed, on the
// waiter itself; a waiter that loses the role parks. A holder that leaves
// work rings the progress thread. Whoever holds the role never waits on a
// peer's ring (the fabric's RNR retry loop, an arena wait) without re-arming
// its own (arm_recv_ring); otherwise two nodes waiting on each other's rings
// would both stall until RNR.
//
// Small-message engine (docs/perf.md): with cfg.coalesce_enabled the Tx
// pass packs every protocol message it finds queued for the same peer into
// one wire SEND (kBatch framing, bytes/frames/deadline cutoffs) and defers
// posting so each pass rings each peer QP's doorbell once with a span of
// work requests; with it off, every request is its own SEND, posted alone.
// The receiver unpacks frames and dispatches each. Payloads ride in pooled
// PayloadBufs, so the steady-state Tx/Rx path performs no heap allocation.
//
// Large-message engine (docs/perf.md): payload-bearing requests at or above
// cfg.rendezvous_threshold_bytes switch from the eager path to a rendezvous:
// the Tx pass parks the request in a lease and sends a small kRndzReq
// advertising the pinned source {addr, rkey, len}; the peer pulls the bytes
// with one-sided RDMA READs (MTU-chunked, one signaled completion), then
// dispatches the embedded notification and returns a piggybacked
// kRndzFin that releases the lease (fires the posted_flag). No send-arena
// staging touches the payload on either side — the transfer is zero-copy end
// to end. A failed pull (WC error after retry exhaustion, or no lease slot
// free) NAKs with kRndzAck and the sender falls back to the eager path, so
// rendezvous never loses a message — it only loses the zero-copy fast path.
//
// Fault recovery (see docs/chaos.md): a completion-with-error moves the QP to
// ERROR and the progress thread drives that peer's recovery. The fabric never
// half-executes a WR — an error status means no bytes moved — so re-posting
// is exactly-once. Ordering is preserved end to end: the error
// flushes everything behind the failed WR, the Tx pass collects failed and
// flushed requests into a per-peer retry queue in original order, stages any
// new requests for that peer behind them, and after a bounded-exponential
// backoff resets the QP and replays the queue front to back. A coalesced
// batch is one WR, so replay keeps its frames contiguous and in order.
// Requests that exhaust their attempt budget or wall-clock deadline are
// handed to the error handler (default: fail-stop) instead of retried.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/mpsc_queue.hpp"
#include "net/message.hpp"
#include "obs/duty_cycle.hpp"
#include "rdma/completion_queue.hpp"
#include "rdma/device.hpp"
#include "rdma/fabric.hpp"
#include "rdma/queue_pair.hpp"

namespace darray::net {

// An unrecoverable communication failure, delivered on the thread running
// the Tx pass.
struct CommError {
  uint32_t peer = 0;
  rdma::Opcode opcode = rdma::Opcode::kSend;
  rdma::WcStatus status = rdma::WcStatus::kSuccess;
  uint32_t attempts = 0;
  uint32_t frames = 1;  // protocol messages lost (a dropped batch loses several)
  const char* reason = "";
};

class CommLayer {
 public:
  // `dispatch` is invoked by the receive-role holder (the progress thread or
  // a waiting application thread) for every inbound message (notifications
  // embedded in a completed rendezvous pull included), outside the Tx lock.
  // It may post (an engine pass's replies go out from there) but must never
  // block.
  using DispatchFn = std::function<void(RpcMessage&&)>;
  // Invoked from the Tx pass when a request is abandoned (retry budget or
  // deadline exhausted, or an untracked WR failed). The handler must not
  // block; with no handler installed the comm layer fail-stops.
  using ErrorFn = std::function<void(const CommError&)>;
  // The owner's work (NodeRuntime: the engine passes submitters left), run
  // once per receive iteration by the role holder, outside the Tx lock and
  // before the Tx pass, so what it posts goes out in the same iteration. The
  // owner asks for a call by ringing bell(). `poll` makes the progress loop
  // yield instead of parking: the owner waits on something that never rings.
  struct Progress {
    bool progressed = false;
    bool poll = false;
    void operator|=(Progress o) {
      progressed |= o.progressed;
      poll |= o.poll;
    }
  };
  using ProgressFn = std::function<Progress()>;

  CommLayer(uint32_t node_id, uint32_t num_nodes, const ClusterConfig& cfg,
            rdma::Device* device, DispatchFn dispatch, ProgressFn progress = {});
  ~CommLayer();

  CommLayer(const CommLayer&) = delete;
  CommLayer& operator=(const CommLayer&) = delete;

  rdma::Device* device() const { return device_; }
  rdma::CompletionQueue* send_cq() { return &send_cq_; }
  rdma::CompletionQueue* recv_cq() { return &recv_cq_; }
  Doorbell& bell() { return bell_; }

  // Topology wiring (before start()).
  void set_qp(uint32_t peer, rdma::QueuePair* qp);

  // Optional; before start().
  void set_error_handler(ErrorFn fn) { error_fn_ = std::move(fn); }

  void start();
  void stop();

  // Any thread: enqueue an outbound request, and post it right away when no
  // other thread is running the Tx pass (see the file comment). Inside a
  // DeferTx scope it only enqueues.
  void post(TxRequest req);

  // While one is live on a thread, that thread's post() calls only enqueue;
  // its destructor then runs one Tx pass for them (inline when the Tx lock is
  // free, else by ringing the progress thread). Not reentrant.
  class DeferTx {
   public:
    DeferTx();
    ~DeferTx();
    DeferTx(const DeferTx&) = delete;
    DeferTx& operator=(const DeferTx&) = delete;
  };

  // A thread of this node waiting for `done` (NodeRuntime::submit_and_wait).
  // While it takes the receive role without waiting, it runs receive
  // iterations, re-checking `done` and yielding between them; once it loses
  // the role, or has polled for kCallerPollNs, it parks on `done`. A thread
  // inside a DeferTx scope (every engine pass runs in one) only parks.
  void wait(const Completion& done);

  // How long a waiter polls before it parks: several remote misses' worth, a
  // small share of a long wait such as a contended lock.
  static constexpr uint64_t kCallerPollNs = 200'000;

  size_t max_msg_bytes() const { return max_msg_bytes_; }

  // Requests abandoned after exhausting recovery (diagnostics / tests).
  uint64_t dropped_requests() const {
    return dropped_requests_.load(std::memory_order_relaxed);
  }

  // Large-message engine counters (sender side; any thread may sample).
  // started counts rendezvous negotiations begun; completed counts leases
  // released by a kRndzFin; fallbacks counts transfers that reverted to the
  // eager path (lease-table exhaustion or a peer NAK); bytes counts payload
  // bytes moved by completed rendezvous (excluded from eager accounting).
  struct RndzStats {
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t fallbacks = 0;
    uint64_t bytes = 0;
  };
  RndzStats rndz_stats() const {
    return {rndz_started_.load(std::memory_order_relaxed),
            rndz_completed_.load(std::memory_order_acquire),
            rndz_fallbacks_.load(std::memory_order_relaxed),
            rndz_bytes_.load(std::memory_order_relaxed)};
  }

  // Who ran the Tx pass (any thread may sample): passes run inline by a
  // posting or waiting thread, and those that left work to the progress
  // thread.
  struct TxPassStats {
    uint64_t inline_passes = 0;
    uint64_t handoffs = 0;
  };
  TxPassStats tx_pass_stats() const {
    return {inline_passes_.load(std::memory_order_relaxed),
            handoffs_.load(std::memory_order_relaxed)};
  }

  // Who ran the receive iterations (any thread may sample): waiting
  // application threads, and the progress thread.
  struct RxPassStats {
    uint64_t caller_passes = 0;
    uint64_t progress_passes = 0;
  };
  RxPassStats rx_pass_stats() const {
    return {rx_caller_passes_.load(std::memory_order_relaxed),
            rx_progress_passes_.load(std::memory_order_relaxed)};
  }

  // Per-peer outbound byte accounting (protocol bytes: header+payload for
  // SENDs, payload bytes for bulk data), split by transfer mechanism so
  // remote:local ratios and darray-top's per-peer columns stay truthful for
  // the bulk path. Indexed by peer node id; any thread may sample.
  struct PeerTxBytes {
    uint64_t send_bytes = 0;   // eager SEND traffic (headers + payloads)
    uint64_t write_bytes = 0;  // eager one-sided data WRITEs
    uint64_t rndz_bytes = 0;   // completed rendezvous pulls (sender side)
  };
  PeerTxBytes peer_tx_bytes(uint32_t peer) const {
    const auto& c = peer_tx_[peer];
    return {c.send.load(std::memory_order_relaxed),
            c.write.load(std::memory_order_relaxed),
            c.rndz.load(std::memory_order_relaxed)};
  }
  uint64_t total_tx_bytes() const {
    uint64_t total = 0;
    for (uint32_t p = 0; p < num_nodes_; ++p) {
      const auto& c = peer_tx_[p];
      total += c.send.load(std::memory_order_relaxed) +
               c.write.load(std::memory_order_relaxed) +
               c.rndz.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Busy/idle duty cycle of the progress thread (obs; any thread may sample).
  // Receive iterations run by waiters are not in it: they count in
  // rx_pass_stats().
  const obs::DutyCycle& duty() const { return duty_; }

 private:
  static constexpr uint32_t kNoBuf = ~0u;

  // One posted (or to-be-posted) WR the Tx pass may have to replay. SENDs
  // always reference a send-arena buffer (a coalesced batch is one entry
  // covering `frames` protocol messages); WRITEs do too in chaos mode (the
  // payload is staged so the source cacheline can be recycled immediately),
  // while outside chaos mode WRITEs stay zero-copy/unsignaled and untracked.
  struct Outstanding {
    uint64_t wr_id = 0;
    uint32_t buf = kNoBuf;      // send-arena buffer index
    uint32_t len = 0;
    rdma::Opcode op = rdma::Opcode::kSend;
    uint64_t remote_addr = 0;   // WRITE only
    uint32_t rkey = 0;          // WRITE only
    uint32_t attempts = 0;      // post attempts so far
    uint16_t frames = 1;        // protocol messages carried (batch SENDs > 1)
    uint64_t deadline_ns = 0;
    uint64_t trace = 0;         // obs correlation id (first traced frame for a
                                //   batch), so retries attribute to their op
    uint8_t msg_class = 0;      // latency-histogram class (MsgType value, or
                                //   kMsgClassDataWrite for data WRITEs)
    rdma::WcStatus last_status = rdma::WcStatus::kSuccess;

    // Rendezvous READ pulls only: the local destination slice this chunk
    // lands in (READs have no arena buffer; replay re-reads into the same
    // slice, which is idempotent), and the pull it belongs to. rndz_last
    // marks the final (signaled) chunk whose retirement completes the pull.
    std::byte* read_dst = nullptr;
    uint32_t read_lkey = 0;
    uint32_t rndz_id = 0;       // key into rndz_pulls_; 0 = not a pull chunk
    bool rndz_last = false;
  };

  // Per-peer recovery state (Tx-private). `moved` receives failed/flushed
  // entries in CQE order while their QP drains; once the outstanding FIFO is
  // empty they are prepended to `retry` (they predate anything staged there)
  // and replayed after the backoff expires.
  struct PeerRecovery {
    std::deque<Outstanding> moved;
    std::deque<Outstanding> retry;
    uint64_t next_attempt_ns = 0;
  };

  // A sealed work request awaiting its doorbell-batched post. Tracked
  // entries (SENDs, chaos-staged WRITEs) enter the outstanding FIFO at post
  // time; untracked zero-copy WRITEs carry the posted_flag to release their
  // source once actually posted.
  struct PendingWr {
    rdma::SendWr wr;
    Outstanding e;
    bool tracked = false;
    std::atomic<uint32_t>* posted_flag = nullptr;
  };

  // Per-peer Tx coalescing state: the open pack buffer (frames written
  // behind a reserved kBatch-envelope slot) plus sealed-but-unposted WRs for
  // this drain pass.
  struct TxBatch {
    uint32_t buf = kNoBuf;
    uint32_t bytes = 0;     // used bytes, including the reserved envelope slot
    uint32_t frames = 0;
    uint64_t open_ns = 0;   // when the first frame was staged
    uint64_t trace = 0;     // first traced frame in the open batch
    uint8_t msg_class = 0;  // class of a single-frame batch (mixed batches
                            //   keep the first frame's class)
    std::vector<PendingWr> wrs;
  };

  // --- rendezvous state -------------------------------------------------------

  // Sender side: one parked large-message request whose source region stays
  // pinned until the peer's kRndzFin (or a NAK reverts it to eager). The
  // lease id on the wire is (generation << 16) | slot so a stale FIN/ACK that
  // raced a fallback cannot release a recycled slot. Guarded by lease_mu_
  // (taken by a Tx pass to start and the receive-role holder's dispatch to
  // release — both are O(1) critical sections on a path already costing a
  // network round trip).
  struct RndzLease {
    TxRequest req;
    uint32_t gen = 0;
    bool active = false;
  };

  // Receiver side: the pull a kRndzReq asks for. Dispatch parses it outside
  // the Tx lock and may not wait for that lock (an inline poster can hold
  // it), so it waits in rndz_jobs_ for the progress thread's next full pass.
  // That pass posts its READ chunks and keeps it in rndz_pulls_, keyed by a
  // Tx-local id each chunk's Outstanding carries, until the signaled
  // completion retires; then `inner` is dispatched and the FIN sent.
  struct RndzPull {
    RndzDesc desc;
    uint16_t src = 0;     // sender node (where FIN/NAK goes)
    uint64_t trace = 0;
    MsgHeader inner_hdr;
    PayloadBuf inner_payload;
  };

  // Profile anchor: keeps the progress loop out of the std::thread lambda so
  // sampled stacks name it (docs/observability.md v5).
  DARRAY_PROFILE_ANCHOR void progress_main();
  // One receive iteration, run by the progress thread's loop and by waiters
  // alike: take the receive role without waiting (nullopt when another
  // thread holds it), arm the ring, dispatch the backlog, run the owner's
  // leftover passes, then one Tx pass — the full pass on the progress
  // thread, an inline one on a waiter. A waiter that leaves work (`left`,
  // `poll`) rings the progress thread once it has released the role.
  struct RxIteration {
    bool progressed = false;
    bool poll = false;     // the owner waits on something that never rings
    bool left = false;     // backlog or rendezvous jobs left for the next holder
    bool tx_busy = false;  // progress thread: another thread runs a Tx pass
    uint64_t due = 0;      // progress thread: earliest holdback or retry
  };
  std::optional<RxIteration> rx_iteration(bool progress_thread);
  // Role holder: poll the recv CQ, copy each message into rx_backlog_,
  // repost its buffer, and re-arm buffers parked by a QP error once the QP
  // is back in RTS. Never dispatches or posts, so it is safe in any wait.
  bool arm_recv_ring();
  bool dispatch_backlog();  // role holder, outside the Tx lock
  // Progress thread: park until the doorbell rings or `due` ns pass.
  void park(uint32_t snap, uint64_t due);
  uint64_t next_due_in() const;  // earliest CQ holdback or retry; caller holds tx_mu_
  // Run a Tx pass for what is queued when the Tx lock is free (between
  // start() and stop()); else ring the progress thread.
  void run_or_ring();
  // One Tx pass: stage everything queued, flush, retire completions, and
  // (progress thread only) drive recovery and rendezvous. Caller holds
  // tx_mu_. Returns whether it made progress. An inline pass never parks and
  // rings the progress thread for whatever it leaves.
  DARRAY_PROFILE_ANCHOR bool tx_pass(bool inline_caller);
  // Peer QP in ERROR, or failed/staged work waiting for its replay.
  bool recovering(uint32_t peer) const;
  // Most send-arena buffers staging and posting `req` can take.
  size_t arena_bound(const TxRequest& req) const;
  // Stage the request into the per-peer batch state.
  void enqueue_tx(TxRequest& req);
  void append_frame(uint32_t peer, TxRequest& req, uint64_t now);
  void seal_batch(uint32_t peer);
  void flush_peer(uint32_t peer, bool seal_open = true);
  void flush_all();
  void flush_due(uint64_t now);
  void stage_pending(uint32_t peer);
  void stage_request(TxRequest& req, uint64_t now);
  // Copy a WRITE payload into arena-backed entries, chunked to
  // max_msg_bytes_ so payloads larger than one buffer survive staging; hands
  // each entry to emit(Outstanding&&).
  template <typename Emit>
  void stage_chunks(const std::byte* src, uint32_t len, uint64_t remote_addr, uint32_t rkey,
                    uint64_t trace, uint64_t now, Emit&& emit);
  // stage_chunks for the eager data WRITE of `req`, then fire its posted_flag.
  template <typename Emit>
  void stage_data_chunks(TxRequest& req, uint64_t now, Emit&& emit);
  Outstanding make_send_entry(TxRequest& req, uint64_t now);
  // The signaled work request that posts (or replays) a tracked entry.
  rdma::SendWr wr_for(const Outstanding& e);
  void post_entry(uint32_t peer, Outstanding e);
  // Rendezvous: sender-side negotiation start. Returns false (leaving `req`
  // intact) when no lease slot is free — the caller falls back to eager.
  bool start_rndz(TxRequest& req);
  // Rendezvous: release lease `id`; returns the parked request if the id was
  // current. `completed` distinguishes FIN (fire flag, count bytes) from NAK.
  void finish_lease(uint32_t id, bool completed);
  // Rendezvous: receiver side (progress thread). start_pull posts the READ
  // chunks; process_rndz_actions handles completed pulls (queue the
  // notification for dispatch + FIN) and failed ones (NAK) — deferred so they
  // never run nested inside a flush.
  void start_pull(RndzPull&& job, uint64_t now);
  bool process_rndz_actions();
  void send_ctl(uint16_t dst, MsgType type, uint32_t lease_id, uint64_t trace);
  // Dispatch-time intercept for transport-internal rendezvous messages;
  // returns true when the message was consumed (not for the runtime).
  bool handle_rndz_msg(RpcMessage& m);
  void reclaim_send_buffers();
  void handle_error_cqe(const rdma::WorkCompletion& wc);
  bool pump_retries(uint64_t now);  // returns whether it reset a QP
  void fail_entry(uint32_t peer, Outstanding& e, const char* reason);
  void fail(const CommError& err);
  uint64_t retry_due_in(uint64_t now) const;
  uint64_t backoff_ns(uint32_t attempts) const;
  uint32_t acquire_send_buffer();  // only the progress thread may wait for one
  uint32_t stage_send_msg(TxRequest& req);  // copy header+payload into a buffer
  void release_buf(uint32_t buf) {
    if (buf != kNoBuf) send_free_.push_back(buf);
  }
  std::byte* buf_ptr(uint32_t buf) {
    return send_arena_.get() + size_t{buf} * max_msg_bytes_;
  }

  const uint32_t node_id_;
  const uint32_t num_nodes_;
  const ClusterConfig cfg_;
  rdma::Device* device_;
  DispatchFn dispatch_;
  ProgressFn progress_;
  ErrorFn error_fn_;
  const size_t max_msg_bytes_;

  // The progress thread's doorbell: both CQs ring it, and so do a poster
  // that leaves it work and the owner (ProgressFn).
  Doorbell bell_;
  rdma::CompletionQueue send_cq_{&bell_};
  rdma::CompletionQueue recv_cq_{&bell_};
  // Pushed by post(), which rings bell_ itself only when it does not run
  // the pass inline.
  MpscQueue<TxRequest> tx_queue_;
  // The Tx lock: held for every Tx pass; it guards tx_queue_'s consumer side,
  // send_cq_ polling and every Tx-private field below. The progress thread
  // only try_locks it, and holds it across an arena wait inside its pass,
  // never while parked idle.
  std::mutex tx_mu_;
  std::atomic<bool> inline_ok_{false};  // between start() and stop()
  std::atomic<uint64_t> inline_passes_{0}, handoffs_{0};

  std::vector<rdma::QueuePair*> qp_to_peer_;        // indexed by peer node id
  std::vector<rdma::QueuePair*> qp_by_num_;         // sparse, indexed by qp_num

  // Send-side message buffers: one registered arena, Tx-private freelist,
  // per-QP FIFO of outstanding buffers reclaimed by signaled completions.
  std::unique_ptr<std::byte[]> send_arena_;
  rdma::MemoryRegion send_mr_;
  uint32_t send_buf_count_ = 0;
  std::vector<uint32_t> send_free_;                  // Tx-private
  std::vector<std::deque<Outstanding>> outstanding_; // per peer
  std::vector<PeerRecovery> recovery_;               // per peer, Tx-private
  std::vector<TxBatch> txb_;                         // per peer, Tx-private
  std::vector<rdma::SendWr> post_wrs_;               // flush scratch, Tx-private
  std::vector<uint32_t> unsignaled_run_;             // per peer, for signaling
  uint64_t next_wr_id_ = 1;
  bool chaos_ = false;     // fabric has a fault injector (latched at start())
  bool in_flush_ = false;  // Tx-private: guards acquire→flush reentrancy

  // The receive role: held for every receive iteration, by the progress
  // thread or a waiter, and only ever try_locked. It guards recv_cq_
  // polling (its holdback included), the receive state below and
  // rndz_jobs_. The full Tx pass runs inside it (it starts the pulls of
  // rndz_jobs_ and queues their notifications on rx_backlog_).
  std::mutex rx_mu_;
  std::atomic<uint64_t> rx_caller_passes_{0}, rx_progress_passes_{0};

  // Recv-side buffers (role-private): preposted per QP, reposted once their
  // message is copied out. Buffers flushed by a QP error are parked until
  // the Tx pass resets the QP, then reposted.
  std::unique_ptr<std::byte[]> recv_arena_;
  rdma::MemoryRegion recv_mr_;
  std::vector<std::vector<rdma::RecvWr>> parked_recvs_;  // per peer
  // Copied-out messages awaiting dispatch; arm_recv_ring may append while
  // dispatch_backlog walks rx_work_.
  std::vector<RpcMessage> rx_backlog_, rx_work_;

  std::atomic<uint64_t> dropped_requests_{0};

  // --- rendezvous state (see struct comments above) ---------------------------
  std::mutex lease_mu_;
  std::vector<RndzLease> leases_;                    // fixed size, cfg-bounded
  std::vector<RndzPull> rndz_jobs_;                  // role-private
  std::unordered_map<uint32_t, RndzPull> rndz_pulls_;  // Tx-private, in-flight
  uint32_t next_rndz_id_ = 1;                        // Tx-private
  std::vector<uint32_t> rndz_done_;                  // Tx-private, deferred
  struct RndzNak {
    uint16_t src = 0;
    uint32_t lease_id = 0;
    uint64_t trace = 0;
  };
  std::vector<RndzNak> rndz_nak_;                    // Tx-private, deferred
  std::atomic<uint64_t> rndz_started_{0}, rndz_completed_{0};
  std::atomic<uint64_t> rndz_fallbacks_{0}, rndz_bytes_{0};

  // Per-peer outbound byte counters (see PeerTxBytes).
  struct PeerTxCounters {
    std::atomic<uint64_t> send{0}, write{0}, rndz{0};
  };
  std::unique_ptr<PeerTxCounters[]> peer_tx_;

  obs::DutyCycle duty_;

  std::thread progress_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace darray::net
