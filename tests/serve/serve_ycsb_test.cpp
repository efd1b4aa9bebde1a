// The YCSB workload definition (kvs/ycsb.hpp) and its one driver
// (serve/ycsb_serve.hpp) over KvsService + DKvs: key/value format, the load
// phase, the get/put mix, and op accounting across nodes and threads.
#include "serve/ycsb_serve.hpp"

#include <gtest/gtest.h>

#include <string>

#include "kvs/kvs.hpp"
#include "tests/test_util.hpp"

namespace darray::serve {
namespace {

using kvs::ycsb_key;
using kvs::ycsb_value;
using kvs::YcsbConfig;

KvsService make_service(rt::Cluster& cluster) {
  return KvsService::create(cluster,
                            kvs::DKvs::create(cluster, kvs::KvsConfig{1 << 8, 1 << 6, 8 << 20}),
                            ServeConfig{});
}

TEST(ServeYcsb, KeyFormat) {
  EXPECT_EQ(ycsb_key(0), "user0");
  EXPECT_EQ(ycsb_key(123456), "user123456");
  EXPECT_NE(ycsb_key(1), ycsb_key(10));
}

TEST(ServeYcsb, ValueSizedAndTagged) {
  const std::string v = ycsb_value(42, 100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.substr(0, 6), "val42:");
  EXPECT_EQ(v.back(), 'x');
}

TEST(ServeYcsb, LoadInsertsEveryKey) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = make_service(cluster);
  YcsbConfig cfg;
  cfg.n_keys = 300;
  ycsb_load_serve(svc, cfg);
  {
    Client cli = Client::connect(svc, {.node = 0});
    for (uint64_t k = 0; k < cfg.n_keys; ++k) {
      std::string v;
      ASSERT_EQ(cli.get(ycsb_key(k), v), Status::kOk) << k;
      EXPECT_EQ(v, ycsb_value(k, cfg.value_bytes)) << k;
    }
  }
  svc.shutdown();
}

TEST(ServeYcsb, GetRatioRespectedApproximately) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = make_service(cluster);
  YcsbConfig cfg;
  cfg.n_keys = 200;
  cfg.ops_per_thread = 1000;
  cfg.threads_per_node = 1;
  cfg.get_ratio = 0.8;
  ycsb_load_serve(svc, cfg);
  const ServeYcsbResult r = run_ycsb_serve(svc, cfg);
  const double ratio = static_cast<double>(r.gets) / static_cast<double>(r.gets + r.puts);
  EXPECT_NEAR(ratio, 0.8, 0.05);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(r.busy, 0u);
  svc.shutdown();
}

TEST(ServeYcsb, PureGetWorkloadHasNoPuts) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = make_service(cluster);
  YcsbConfig cfg;
  cfg.n_keys = 100;
  cfg.ops_per_thread = 200;
  cfg.get_ratio = 1.0;
  ycsb_load_serve(svc, cfg);
  const ServeYcsbResult r = run_ycsb_serve(svc, cfg);
  EXPECT_EQ(r.puts, 0u);
  EXPECT_GT(r.kops, 0.0);
  EXPECT_GT(r.elapsed_s, 0.0);
  svc.shutdown();
}

TEST(ServeYcsb, SmokeRunOnDArrayKvs) {
  rt::Cluster cluster(testing::small_cfg(2));
  auto svc = make_service(cluster);
  YcsbConfig cfg;
  cfg.n_keys = 500;
  cfg.ops_per_thread = 300;
  cfg.threads_per_node = 2;
  cfg.get_ratio = 0.9;
  ycsb_load_serve(svc, cfg);
  const ServeYcsbResult r = run_ycsb_serve(svc, cfg);
  // Every op completed: none was shed with kBusy.
  EXPECT_EQ(r.gets + r.puts, 2u * 2 * 300);
  EXPECT_EQ(r.misses, 0u) << "all keys were preloaded";
  EXPECT_GT(r.kops, 0.0);
  svc.shutdown();
}

}  // namespace
}  // namespace darray::serve
