// perfbench: the repository benchmark. One process runs one workload with
// one seed for a fixed time and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics, traced runs (--trace 1) the
// per-layer ones. See README.md in this directory for the workloads and
// every metric; run it through run.py, which builds this binary first.
//
//   perfbench --workload <seq_scan|rand_rw|pagerank|kvs_zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--src-hash <h>]
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace guard {
namespace {

struct State {
  std::mutex mu;  // guards cluster
  Cluster* cluster = nullptr;
  std::atomic<const char*> phase{"start"};
  Options opts;
  double deadline_s = 0;
  std::mutex stop_mu;  // guards stop
  std::condition_variable stop_cv;
  bool stop = false;
};

State& state() {
  static State s;
  return s;
}

void expire() {
  State& s = state();
  std::fprintf(stderr,
               "perfbench: deadline of %.0f s expired: workload=%s seed=%llu trace=%d "
               "phase=%s\n",
               s.deadline_s, s.opts.workload.c_str(),
               static_cast<unsigned long long>(s.opts.seed), s.opts.trace ? 1 : 0,
               s.phase.load());
  {
    std::lock_guard lk(s.mu);
    if (s.cluster != nullptr)
      std::fprintf(stderr, "perfbench: cluster stats at expiry:\n%s\n",
                   s.cluster->stats().to_json("  ").c_str());
    else
      std::fprintf(stderr, "perfbench: no cluster alive at expiry\n");
  }
  std::fflush(stderr);
  std::_Exit(3);
}

}  // namespace

void set_phase(const char* phase) { state().phase.store(phase); }

void watch(Cluster* cluster) {
  std::lock_guard lk(state().mu);
  state().cluster = cluster;
}

// Watches the deadline on its own thread until the Guard is destroyed.
class Guard {
 public:
  Guard(const Options& o, double deadline_s) {
    State& s = state();
    s.opts = o;
    s.deadline_s = deadline_s;
    thread_ = std::thread([deadline_s] {
      State& st = state();
      std::unique_lock lk(st.stop_mu);
      if (!st.stop_cv.wait_for(lk, std::chrono::duration<double>(deadline_s),
                               [&st] { return st.stop; }))
        expire();
    });
  }
  ~Guard() {
    {
      std::lock_guard lk(state().stop_mu);
      state().stop = true;
    }
    state().stop_cv.notify_all();
    thread_.join();
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  std::thread thread_;
};

}  // namespace guard
}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <seq_scan|rand_rw|pagerank|"
               "kvs_zipf> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--src-hash <h>]\n",
               msg);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown", src_hash = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = end && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      have_seconds = end && *end == '\0' && o.seconds > 0 && o.seconds <= 120;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || o.trace;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--src-hash") {
      src_hash = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  struct Workload {
    const char* name;
    Outcome (*run)(const Options&);
  };
  static constexpr Workload kWorkloads[] = {
      {"seq_scan", run_seq_scan},
      {"rand_rw", run_rand_rw},
      {"pagerank", run_pagerank},
      {"kvs_zipf", run_kvs_zipf},
  };
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (o.workload == k.name) w = &k;
  if (w == nullptr) usage(("unknown workload " + o.workload).c_str());

  // Every thread of the process runs on one CPU. Across the vCPUs of a
  // virtual machine a thread wake-up may wait for the host to schedule an
  // idle vCPU, and how many vCPUs the host runs at once follows its load:
  // the miss-path workloads ran 3-4x slower on all CPUs, with millisecond
  // stalls, and seq_scan's throughput moved 3x between runs. On one CPU the
  // figures are steady, but they measure a time-sliced CPU, on which spinning
  // before parking only delays the thread waited on (see README.md). Each
  // workload also prints one segment run on every CPU.
  const int cpus = pin_to_one_cpu();
  if (cpus < 0) {
    std::fprintf(stderr, "perfbench: cannot restrict the process to one CPU\n");
    return 1;
  }

  // Run header: where and how these numbers were measured.
  std::printf(
      "# perfbench {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"build_type\": \"%s\", \"darray_tracing_compiled\": %s, "
      "\"commit\": \"%s\", \"src_hash\": \"%s\", \"fabric_latency_ns\": %llu, "
      "\"nodes\": %u, \"app_threads_per_node\": 1, \"cpus_used\": %d}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, DARRAY_TRACING ? "true" : "false",
      json_escape(commit).c_str(), json_escape(src_hash).c_str(),
      static_cast<unsigned long long>(kFabricLatencyNs), kNodes, cpus);
  std::fflush(stdout);

  // Set-up, the timed region and teardown must all end well inside the
  // 180 s a run may take.
  const double deadline_s = std::min(165.0, 3.0 * o.seconds + 75.0);
  Outcome out;
  {
    guard::Guard g(o, deadline_s);
    out = w->run(o);
    guard::set_phase("done");
  }

  for (const std::string& s : out.sizes) std::printf("# size %s\n", s.c_str());
  for (const std::string& d : out.details) std::printf("# %s\n", d.c_str());

  // Every metric of the mode's list, in list order; a workload that makes no
  // call of a kind leaves its metric at 0.
  const auto& names = o.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end() && !o.trace) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n", name.c_str());
      return 1;
    }
    const double value = it == out.metrics.end() ? 0.0 : it->second.value;
    std::printf("# metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics += fmt("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", metrics.empty() ? "" : ", ",
                   name.c_str(), value, unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
