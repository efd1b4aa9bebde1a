// Quickstart: the full DArray API tour on a small simulated cluster.
//
//   build/examples/quickstart
//
// Creates a 4-node cluster, a distributed array, and demonstrates Read/Write,
// the Operate interface (write_add), distributed R/W locks, and the Pin hint.
#include <cstdio>
#include <thread>
#include <vector>

#include "core/darray.hpp"

using namespace darray;

int main() {
  // 1. A simulated 4-node RDMA cluster (each "node" = engine shards + one
  //    comm progress thread, joined by the simulated fabric).
  rt::ClusterConfig cfg;
  cfg.num_nodes = 4;
  rt::Cluster cluster(cfg);

  // 2. A global array of 100k doubles, evenly partitioned across the nodes.
  auto arr = DArray<double>::create(cluster, 100'000);
  std::printf("created DArray with %llu elements over %u nodes\n",
              static_cast<unsigned long long>(arr.size()), cluster.num_nodes());

  // 3. Register an associative+commutative operator for the Operate API. The
  //    handle is typed: applying it through a non-double array won't compile.
  const OpHandle<double> add =
      arr.register_op(+[](double& acc, double v) { acc += v; }, 0.0);

  // 4. Each node's application thread writes its local range, then applies
  //    concurrent write_adds to a shared "counter" element — no locks needed.
  std::vector<std::thread> threads;
  for (rt::NodeId n = 0; n < cluster.num_nodes(); ++n) {
    threads.emplace_back([&, n] {
      bind_thread(cluster, n);  // this thread is an app thread of node n

      // Plain writes to the local partition (fast path, no network).
      for (uint64_t i = arr.local_begin(n); i < arr.local_end(n); ++i)
        arr.set(i, static_cast<double>(i));

      // Concurrent Operate on one hot element from every node: operands are
      // combined locally and reduced at the home node (§4.3 of the paper).
      for (int k = 0; k < 1000; ++k) arr.apply(0, add, 1.0);

      // Distributed writer lock protecting a read-modify-write; the guard
      // releases on scope exit (even if an exception unwinds through it).
      {
        auto g = arr.scoped_wlock(1);
        arr.set(1, arr.get(1) + 10.0);
      }

      // Pin a remote chunk and sweep it with zero atomics (§4.1), pulling the
      // elements out in one bounds-checked bulk read.
      const uint64_t remote = arr.local_begin((n + 1) % cluster.num_nodes());
      if (auto p = arr.scoped_pin(remote, PinMode::kRead)) {
        double vals[64];
        arr.get_range(remote, vals);
        double sum = 0;
        for (double v : vals) sum += v;
        std::printf("node %u pinned-read sum over 64 remote elems: %.0f\n", n, sum);
      }
    });
  }
  for (auto& t : threads) t.join();

  // 5. Verify from node 0: reads force every node's combined operands home.
  bind_thread(cluster, 0);
  std::printf("arr[0] after 4 nodes x 1000 write_add(1.0): %.0f (expect 4000)\n",
              arr.get(0));
  std::printf("arr[1] after 4 locked +10 updates:          %.0f (expect 41)\n", arr.get(1));
  std::printf("arr[99999]:                                 %.0f (expect 99999)\n",
              arr.get(99'999));
  return 0;
}
