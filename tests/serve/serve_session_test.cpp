// SessionCore / SessionRegistry unit tests: seq→response matching, the
// in-flight window accounting across timeouts and late responses, and the
// journey records the completion path emits. The core's state is public and
// mutex-guarded, so the tests drive it directly — no cluster required.
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.hpp"
#include "obs/journey.hpp"
#include "serve/counters.hpp"
#include "serve/session.hpp"

namespace darray::serve {
namespace {

// Register `seq` as submitted, the way ServiceImpl::submit does.
void add_pending(SessionCore& core, uint64_t seq, uint64_t trace = 0,
                 uint64_t t_submit = 0, uint8_t op = 0) {
  std::lock_guard lk(core.mu);
  PendingOp p;
  p.trace = trace;
  p.t_submit = t_submit;
  p.op = op;
  core.pending.emplace(seq, std::move(p));
  ++core.inflight;
}

TEST(ServeSession, DeliverMatchesPendingAndFreesWindowSlot) {
  SessionCore core(0, 1, 4, 0);
  ServeCounters c;
  add_pending(core, 7);
  Response r;
  r.status = Status::kOk;
  r.value = "v";
  EXPECT_TRUE(core.deliver(7, std::move(r), c));
  std::lock_guard lk(core.mu);
  EXPECT_EQ(core.inflight, 0u);
  ASSERT_EQ(core.pending.count(7), 1u);  // entry stays until await consumes it
  EXPECT_TRUE(core.pending[7].done);
  EXPECT_EQ(core.pending[7].resp.status, Status::kOk);
  EXPECT_EQ(core.pending[7].resp.value, "v");
}

TEST(ServeSession, DeliverUnknownOrDoneSeqIsLate) {
  SessionCore core(0, 1, 4, 0);
  ServeCounters c;
  EXPECT_FALSE(core.deliver(99, Response{}, c));  // never submitted
  add_pending(core, 1);
  Response first;
  first.status = Status::kOk;
  EXPECT_TRUE(core.deliver(1, std::move(first), c));
  Response dup;
  dup.status = Status::kOk;
  EXPECT_FALSE(core.deliver(1, std::move(dup), c));  // duplicate: already done
}

TEST(ServeSession, BusyRepliesAreCounted) {
  SessionCore core(0, 1, 4, 0);
  ServeCounters c;
  add_pending(core, 1);
  Response r;
  r.status = Status::kBusy;
  EXPECT_TRUE(core.deliver(1, std::move(r), c));
  EXPECT_EQ(c.busy_replies.load(), 1u);
}

TEST(ServeSession, AwaitConsumedSeqReturnsTimeout) {
  SessionCore core(0, 1, 4, 0);
  // Nothing pending under this seq (already consumed or never submitted):
  // await must not block, and the typed answer is kTimeout.
  EXPECT_EQ(core.await(5).status, Status::kTimeout);
}

TEST(ServeSession, AwaitTimesOutReclaimsWindowAndDropsLateResponse) {
  SessionCore core(0, 1, 4, /*timeout_ns=*/20'000'000);
  ServeCounters c;
  add_pending(core, 3);
  EXPECT_EQ(core.await(3).status, Status::kTimeout);
  {
    std::lock_guard lk(core.mu);
    EXPECT_EQ(core.inflight, 0u);  // the slot the response never freed
    EXPECT_TRUE(core.pending.empty());
  }
  // The response that eventually shows up finds nobody waiting: late, not lost.
  Response r;
  r.status = Status::kOk;
  EXPECT_FALSE(core.deliver(3, std::move(r), c));
}

TEST(ServeSession, TimeoutRetainsPartialJourney) {
  obs::JourneyCollector& jc = obs::journey_collector();
  jc.reset();
  jc.configure(true, 8, 0);
  SessionCore core(2, 9, 4, /*timeout_ns=*/20'000'000);
  add_pending(core, 4, /*trace=*/0x77, /*t_submit=*/now_ns(), /*op=*/1);
  EXPECT_EQ(core.await(4).status, Status::kTimeout);
  EXPECT_EQ(jc.completed(), 0u);  // no stamp chain: histograms untouched
  ASSERT_EQ(jc.retained(), 1u);
  const auto kept = jc.snapshot_retained();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace, 0x77u);
  EXPECT_EQ(kept[0].flags, obs::RequestJourney::kFlagTimeout);
  EXPECT_EQ(kept[0].origin, 2u);
  EXPECT_EQ(kept[0].session, 9u);
  EXPECT_EQ(kept[0].seq, 4u);
  jc.reset();
  jc.configure(false, 8, 0);
}

TEST(ServeSession, DeliverCompletesJourneyChain) {
  obs::JourneyCollector& jc = obs::journey_collector();
  jc.reset();
  jc.configure(true, 8, 1);  // floor 1 ns: the completion is retained too
  SessionCore core(0, 1, 4, 0);
  ServeCounters c;
  const uint64_t base = now_ns();
  add_pending(core, 6, /*trace=*/0x55, /*t_submit=*/base - 600'000, /*op=*/0);
  Response r;
  r.status = Status::kOk;
  r.j.t_admit = base - 500'000;
  r.j.t_dequeue = base - 400'000;
  r.j.t_backend = base - 200'000;
  r.j.t_resp_rx = base - 50'000;
  r.j.owner = 1;
  EXPECT_TRUE(core.deliver(6, std::move(r), c));
  EXPECT_EQ(jc.completed(), 1u);
  EXPECT_EQ(jc.stage_snapshot(obs::JourneyStage::kAdmit).sum_ns, 100'000u);
  EXPECT_EQ(jc.stage_snapshot(obs::JourneyStage::kQueue).sum_ns, 100'000u);
  EXPECT_EQ(jc.stage_snapshot(obs::JourneyStage::kBackend).sum_ns, 200'000u);
  EXPECT_EQ(jc.stage_snapshot(obs::JourneyStage::kNet).sum_ns, 150'000u);
  // deliver stage ends at deliver()'s own now_ns(): positive, unbounded above.
  EXPECT_EQ(jc.stage_snapshot(obs::JourneyStage::kDeliver).count, 1u);
  const auto kept = jc.snapshot_retained();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].owner, 1u);
  EXPECT_EQ(kept[0].status, static_cast<uint8_t>(Status::kOk));
  jc.reset();
  jc.configure(false, 8, 0);
}

TEST(ServeSession, DeliverWakesBlockedWaiter) {
  SessionCore core(0, 1, 4, 0);  // timeout 0: wait forever
  ServeCounters c;
  add_pending(core, 2);
  std::thread waiter([&] { EXPECT_EQ(core.await(2).status, Status::kOk); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Response r;
  r.status = Status::kOk;
  EXPECT_TRUE(core.deliver(2, std::move(r), c));
  waiter.join();
  std::lock_guard lk(core.mu);
  EXPECT_TRUE(core.pending.empty());
  EXPECT_EQ(core.inflight, 0u);
}

TEST(ServeSessionRegistry, OpenFindCloseLifecycle) {
  SessionRegistry reg;
  auto a = reg.open(0, 16, 0);
  auto b = reg.open(1, 8, 1'000'000);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->id, b->id);
  EXPECT_NE(a->id, 0u);  // 0 is reserved: "no session"
  EXPECT_EQ(reg.find(a->id), a);
  EXPECT_EQ(reg.find(b->id), b);
  EXPECT_EQ(b->window, 8u);
  EXPECT_EQ(b->timeout_ns, 1'000'000u);

  reg.close(a->id);
  EXPECT_EQ(reg.find(a->id), nullptr);  // responses for it now count as late
  EXPECT_EQ(reg.find(b->id), b);        // other sessions unaffected
  reg.close(b->id);
  EXPECT_EQ(reg.find(b->id), nullptr);
}

TEST(ServeSessionRegistry, ClosedSessionCoreOutlivesRegistryEntry) {
  // A response can race session close: the shared_ptr the responder already
  // holds must stay valid and deliverable even after close() drops the entry.
  SessionRegistry reg;
  auto core = reg.open(0, 4, 0);
  add_pending(*core, 1);
  reg.close(core->id);
  ServeCounters c;
  Response r;
  r.status = Status::kOk;
  EXPECT_TRUE(core->deliver(1, std::move(r), c));
}

}  // namespace
}  // namespace darray::serve
