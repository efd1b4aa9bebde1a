// Unbounded multi-producer single-consumer queue (Vyukov style) plus the
// Doorbell used to park consumer threads.
//
// These queues are the arrows in the paper's Fig. 2: application threads →
// engine (local-req queue), progress thread → engine (RPC-msg queue),
// engine → Tx pass (RDMA-req queue). All are MPSC: one pass at a time
// consumes a queue, under the lock that guards the protocol state it feeds
// (the engine lock, the Tx lock). Whichever thread holds that lock is the
// consumer.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "common/wait.hpp"

namespace darray {

// Eventcount-style wakeup channel. One consumer may wait on one doorbell fed
// by any number of queues: producers ring after pushing; the consumer
// snapshots, drains everything, and only parks if the snapshot is unchanged.
//
// ring() skips the notify syscall while the consumer is known-awake: a
// consumer that is draining will observe the bumped sequence on its next
// snapshot without being woken, so hot-path producers pay one atomic
// increment and one load, no futex. The waiter flag uses Dekker-style seq_cst
// ordering: the consumer publishes waiting_ before re-checking seq_, the
// producer bumps seq_ before reading waiting_, so at least one side always
// sees the other and the wakeup cannot be lost.
class Doorbell {
 public:
  void ring() {
    seq_.fetch_add(1, std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_seq_cst)) seq_.notify_one();
  }

  uint32_t snapshot() const { return seq_.load(std::memory_order_acquire); }

  void wait_change(uint32_t old) const {
    for (int i = 0; i < kSpinBudget; ++i) {
      if (seq_.load(std::memory_order_acquire) != old) return;
      cpu_relax();
    }
    waiting_.store(true, std::memory_order_seq_cst);
    for (;;) {
      const uint32_t v = seq_.load(std::memory_order_seq_cst);
      if (v != old) break;
      seq_.wait(v, std::memory_order_acquire);
    }
    waiting_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> seq_{0};
  // Single-consumer; mutable so parking keeps the observer-style const API.
  mutable std::atomic<bool> waiting_{false};
};

// One of several work sources behind a consumer's Doorbell: ring() marks the
// source pending, then rings. The consumer snapshots the doorbell, take()s
// each source's mark and runs the marked ones, and parks only on an unchanged
// snapshot; a ring it missed in take() has changed the snapshot.
class PendingBell {
 public:
  explicit PendingBell(Doorbell* bell) : bell_(bell) {}

  void ring() {
    pending_.store(true);
    bell_->ring();
  }

  // Consumer: clear the mark; returns whether it was set.
  bool take() { return pending_.load() && pending_.exchange(false); }

  // Consumer: mark the source again for its own next round, waking no one.
  void keep() { pending_.store(true); }

 private:
  Doorbell* bell_;
  std::atomic<bool> pending_{false};
};

// T must be default-constructible (for the stub node) and movable.
template <typename T>
class MpscQueue {
 public:
  // Pushes ring nothing: a producer that wants the consumer awake rings the
  // consumer's Doorbell itself after push().
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    Node* n = tail_;
    while (n) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  void push(T v) {
    Node* n = new Node(std::move(v));
    Node* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  // Single consumer only.
  bool pop(T& out) {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (!next) return false;
    out = std::move(next->value);
    tail_ = next;
    delete tail;
    return true;
  }

  // Marks the newest element pushed so far, for pop_through().
  using Mark = const void*;
  Mark mark() const { return head_.load(std::memory_order_acquire); }

  // Single consumer only: pop() that stops once the element at `m` has been
  // consumed, so a drain covers one snapshot and leaves later pushes queued.
  bool pop_through(Mark m, T& out) { return tail_ != m && pop(out); }

  // Single consumer only: the oldest element, left in place; null when empty.
  T* front() {
    Node* next = tail_->next.load(std::memory_order_acquire);
    return next ? &next->value : nullptr;
  }

  bool empty() const { return tail_->next.load(std::memory_order_acquire) == nullptr; }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  std::atomic<Node*> head_;           // producers CAS here
  alignas(64) Node* tail_;            // consumer-private
};

}  // namespace darray
