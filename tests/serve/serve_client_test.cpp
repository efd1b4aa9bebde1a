// darray::Client + KvsService basics: typed round-trips, cross-node routing,
// pipelined FIFO ordering, the in-flight window, payload guards, and owner-
// local requests that run on a bound caller.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "kvs/kvs.hpp"
#include "serve/client.hpp"
#include "tests/test_util.hpp"

namespace darray::serve {
namespace {

ServeConfig test_cfg() {
  ServeConfig cfg;
  cfg.workers_per_node = 1;
  return cfg;
}

kvs::KvsConfig tiny_kvs() {
  kvs::KvsConfig c;
  c.n_main_buckets = 64;
  c.n_overflow_buckets = 32;
  c.byte_capacity = 4 << 20;
  return c;
}

TEST(ServeClient, PutGetEraseRoundTrip) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), test_cfg());
  Client cli = Client::connect(svc, {.node = 0});

  EXPECT_EQ(cli.put("alpha", "one"), Status::kOk);
  EXPECT_EQ(cli.put("alpha", "two"), Status::kOk);  // update in place
  std::string v;
  EXPECT_EQ(cli.get("alpha", v), Status::kOk);
  EXPECT_EQ(v, "two");
  EXPECT_EQ(cli.erase("alpha"), Status::kOk);
  EXPECT_EQ(cli.get("alpha", v), Status::kNotFound);
  EXPECT_EQ(cli.erase("alpha"), Status::kNotFound);
  svc.shutdown();
}

TEST(ServeClient, GetMissingIsNotFoundNotCrash) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), test_cfg());
  Client cli = Client::connect(svc, {.node = 1});
  std::string v = "untouched";
  EXPECT_EQ(cli.get("never-written", v), Status::kNotFound);
  EXPECT_EQ(v, "untouched");
  svc.shutdown();
}

TEST(ServeClient, CrossNodeRouting) {
  // Writes from a session on each node are visible from sessions on every
  // other node: all traffic for a key converges on its owner's dispatcher.
  rt::Cluster cluster(testing::small_cfg(3));
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), test_cfg());
  const uint32_t nodes = cluster.num_nodes();

  for (uint32_t n = 0; n < nodes; ++n) {
    Client cli = Client::connect(svc, {.node = n});
    for (int i = 0; i < 20; ++i) {
      const std::string key = "k" + std::to_string(n) + "-" + std::to_string(i);
      ASSERT_EQ(cli.put(key, "from" + std::to_string(n)), Status::kOk);
    }
  }
  for (uint32_t n = 0; n < nodes; ++n) {
    Client cli = Client::connect(svc, {.node = n});
    for (uint32_t w = 0; w < nodes; ++w) {
      for (int i = 0; i < 20; ++i) {
        std::string v;
        const std::string key = "k" + std::to_string(w) + "-" + std::to_string(i);
        ASSERT_EQ(cli.get(key, v), Status::kOk) << key;
        EXPECT_EQ(v, "from" + std::to_string(w));
      }
    }
  }
  // Both wire and local routes were exercised (keys owned by all nodes).
  EXPECT_GT(svc.counters().reqs_wire.load(), 0u);
  EXPECT_GT(svc.counters().reqs_local.load(), 0u);
  svc.shutdown();
}

TEST(ServeClient, PipelinedFifoPerSession) {
  // Per-session FIFO: a pipelined burst of puts to ONE key followed by a get
  // must observe the last put, even with several dispatcher workers.
  rt::Cluster cluster(testing::small_cfg(2));
  ServeConfig cfg = test_cfg();
  cfg.workers_per_node = 3;  // ordering must not depend on a single worker
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), cfg);
  Client cli = Client::connect(svc, {.node = 0, .window = 32});

  for (int round = 0; round < 10; ++round) {
    std::vector<OpHandle> hs;
    for (int i = 0; i <= 25; ++i)
      hs.push_back(cli.async_put("fifo-key", "v" + std::to_string(i)));
    OpHandle last = cli.async_get("fifo-key");
    for (auto& h : hs) EXPECT_EQ(h.get().status, Status::kOk);
    Response r = last.get();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.value, "v25") << "round " << round;
  }
  svc.shutdown();
}

TEST(ServeClient, WindowBoundsInflight) {
  // With window W, at most W ops are pending at any time; submits beyond the
  // window block until a harvest frees a slot, and all ops still complete.
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), test_cfg());
  Client cli = Client::connect(svc, {.node = 0, .window = 4});

  std::vector<OpHandle> hs;
  for (int i = 0; i < 64; ++i)
    hs.push_back(cli.async_put("w" + std::to_string(i % 8), "x"));
  for (auto& h : hs) EXPECT_EQ(h.get().status, Status::kOk);
  svc.shutdown();
}

TEST(ServeClient, OversizedRequestIsTooLarge) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), test_cfg());
  Client cli = Client::connect(svc, {.node = 0});
  // Larger than one fabric message: refused client-side with a typed error,
  // never posted, never aborts.
  const std::string huge(64 * 1024, 'x');
  EXPECT_EQ(cli.put("big", huge), Status::kTooLarge);
  EXPECT_EQ(cli.put("", "empty-key"), Status::kMalformed);
  std::string v;
  EXPECT_EQ(cli.get("big", v), Status::kNotFound);  // nothing was stored
  svc.shutdown();
}

TEST(ServeClient, ManySessionsSharedService) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), test_cfg());
  {
    std::vector<Client> clients;
    for (int i = 0; i < 8; ++i)
      clients.push_back(Client::connect(svc, {.node = static_cast<rt::NodeId>(i % 2)}));
    for (size_t i = 0; i < clients.size(); ++i)
      EXPECT_EQ(clients[i].put("s" + std::to_string(i), "v"), Status::kOk);
  }
  EXPECT_EQ(svc.counters().sessions_opened.load(), 8u);
  svc.shutdown();
}

// A key the KVS places on `owner`'s partition.
std::string key_owned_by(const kvs::DKvs& kvs, rt::NodeId owner, const std::string& stem) {
  for (int i = 0;; ++i) {
    std::string key = stem + std::to_string(i);
    if (kvs.owner_of(key) == owner) return key;
  }
}

TEST(ServeClient, OwnerLocalRequestsRunOnTheCaller) {
  // A client thread bound to the key owner's node runs its requests itself;
  // per-session FIFO, read-your-writes through the hot-key cache and the
  // counters must come out as they do through the dispatcher's queue.
  rt::Cluster cluster(testing::small_cfg(2));
  ServeConfig cfg = test_cfg();
  cfg.workers_per_node = 2;
  cfg.hot_key_enabled = true;
  cfg.hot_promote_threshold = 4;
  auto kvs = kvs::DKvs::create(cluster, tiny_kvs());
  auto svc = KvsService::create(cluster, kvs, cfg);
  const std::string fifo_key = key_owned_by(kvs, 0, "fifo");
  const std::string hot_key = key_owned_by(kvs, 0, "hot");
  const std::string remote_key = key_owned_by(kvs, 1, "remote");

  uint64_t local_reqs = 0;
  std::thread app([&] {
    bind_thread(cluster, 0);
    Client cli = Client::connect(svc, {.node = 0, .window = 32});
    for (int round = 0; round < 5; ++round) {
      std::vector<OpHandle> hs;
      for (int i = 0; i <= 20; ++i)
        hs.push_back(cli.async_put(fifo_key, "v" + std::to_string(round) + "." +
                                                 std::to_string(i)));
      OpHandle last = cli.async_get(fifo_key);
      local_reqs += hs.size() + 1;
      for (auto& h : hs) EXPECT_EQ(h.get().status, Status::kOk);
      const Response r = last.get();
      ASSERT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.value, "v" + std::to_string(round) + ".20");
    }
    std::string v;
    for (int gen = 0; gen < 10; ++gen) {
      const std::string want = "gen" + std::to_string(gen);
      ASSERT_EQ(cli.put(hot_key, want), Status::kOk);
      for (int i = 0; i < 8; ++i) {  // promote, then keep reading
        ASSERT_EQ(cli.get(hot_key, v), Status::kOk);
        ASSERT_EQ(v, want) << "stale hot read after an acknowledged put, gen " << gen;
      }
      local_reqs += 9;
    }
    // A key the other node owns still crosses the fabric.
    ASSERT_EQ(cli.put(remote_key, "far"), Status::kOk);
    ASSERT_EQ(cli.get(remote_key, v), Status::kOk);
    EXPECT_EQ(v, "far");
  });
  app.join();

  ServeCounters& c = svc.counters();
  EXPECT_GT(c.hot_hits.load(), 0u);
  EXPECT_EQ(c.reqs_local.load(), local_reqs);
  EXPECT_EQ(c.reqs_inline.load(), local_reqs);
  EXPECT_EQ(c.reqs_wire.load(), 2u);

  // An unbound caller (this thread) keeps the queue, even for node 0's keys.
  Client unbound = Client::connect(svc, {.node = 0});
  std::string v;
  ASSERT_EQ(unbound.get(fifo_key, v), Status::kOk);
  EXPECT_EQ(v, "v4.20");
  EXPECT_EQ(c.reqs_local.load(), local_reqs + 1);
  EXPECT_EQ(c.reqs_inline.load(), local_reqs);
  svc.shutdown();
}

TEST(ServeClient, ShutdownWhileBoundClientsSubmit) {
  // Bound clients on both nodes keep submitting while shutdown() runs: every
  // handle still resolves — completed, refused as unavailable, or timed out
  // (a wire response that shutdown dropped) — and nothing crashes.
  rt::Cluster cluster(testing::small_cfg(2));
  ServeConfig cfg = test_cfg();
  cfg.workers_per_node = 2;
  cfg.accept_queue_cap = 0;  // no shedding: kBusy would be a bug here
  auto svc = KvsService::create(cluster, kvs::DKvs::create(cluster, tiny_kvs()), cfg);
  std::atomic<bool> down{false};
  std::atomic<uint64_t> ok{0}, unavailable{0}, timed_out{0}, other{0};
  testing::run_on_nodes_mt(cluster, 2, [&](rt::NodeId n, uint32_t t) {
    Client cli = Client::connect(svc, {.node = n, .window = 8, .timeout_ns = 300'000'000});
    std::deque<OpHandle> q;
    auto harvest = [&] {
      switch (q.front().get().status) {
        case Status::kOk: ++ok; break;
        case Status::kUnavailable: ++unavailable; break;
        case Status::kTimeout: ++timed_out; break;
        default: ++other; break;
      }
      q.pop_front();
    };
    // Run until well past the shutdown, so submissions straddle it.
    int after_down = 0;
    for (uint64_t i = 0; after_down < 200; ++i) {
      if (down.load()) ++after_down;
      q.push_back(cli.async_put("k" + std::to_string((i * 7 + n + t) % 32), "v"));
      if (q.size() >= 8) harvest();
      if (n == 0 && t == 0 && i == 300) {
        svc.shutdown();
        down = true;
      }
    }
    while (!q.empty()) harvest();
  });
  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(unavailable.load(), 0u);
}

}  // namespace
}  // namespace darray::serve
