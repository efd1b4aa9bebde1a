// YCSB-style workload definition for the distributed KVS (paper §6.5): keys
// drawn from a Zipfian(0.99) distribution and a configurable get/put mix.
// serve/ycsb_serve.hpp drives it through darray::Client sessions and reports
// total Kops/s across all nodes and threads.
#pragma once

#include <cstdint>
#include <string>

namespace darray::kvs {

struct YcsbConfig {
  uint64_t n_keys = 20000;
  double get_ratio = 0.95;       // fraction of get requests
  double zipf_theta = 0.99;      // paper default
  uint32_t value_bytes = 100;    // YCSB default value size
  uint64_t ops_per_thread = 2000;
  uint32_t threads_per_node = 1;
  uint64_t seed = 42;
};

inline std::string ycsb_key(uint64_t id) { return "user" + std::to_string(id); }

inline std::string ycsb_value(uint64_t id, uint32_t bytes) {
  std::string v = "val" + std::to_string(id) + ":";
  v.resize(bytes, 'x');
  return v;
}

}  // namespace darray::kvs
