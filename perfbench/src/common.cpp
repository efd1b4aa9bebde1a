#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench.hpp"

namespace perfbench {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += fmt(" %.4g", x);
  return s;
}

std::vector<std::pair<uint32_t, uint32_t>> rmat_edges(uint32_t scale, uint32_t edge_factor,
                                                      double a, double b, double c,
                                                      uint64_t seed) {
  const uint64_t n = uint64_t{1} << scale;
  const uint64_t m = n * edge_factor;
  Rng rng(mix64(seed ^ 0x726d6174ull));
  std::vector<uint32_t> perm(n);
  for (uint64_t v = 0; v < n; ++v) perm[v] = static_cast<uint32_t>(v);
  for (uint64_t v = n - 1; v > 0; --v) std::swap(perm[v], perm[rng.below(v + 1)]);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    uint64_t src = 0, dst = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.uniform();
      const bool down = r >= a + b;                  // quadrant c or d
      const bool right = (r >= a && r < a + b) || r >= a + b + c;  // quadrant b or d
      src = (src << 1) | (down ? 1 : 0);
      dst = (dst << 1) | (right ? 1 : 0);
    }
    edges.emplace_back(perm[src], perm[dst]);
  }
  return edges;
}

double percentile_us(const std::vector<const Samples*>& parts, double q) {
  std::vector<std::pair<uint32_t, double>> all;  // (ns, weight)
  double total = 0;
  for (const Samples* s : parts) {
    if (s->values().empty()) continue;
    const double w =
        static_cast<double>(s->seen()) / static_cast<double>(s->values().size());
    for (uint32_t v : s->values()) all.emplace_back(v, w);
    total += w * static_cast<double>(s->values().size());
  }
  if (all.empty()) return 0;
  std::sort(all.begin(), all.end());
  // Mean of the samples whose rank lies within q +- kBand (the nearest-rank
  // sample when none does): integer-nanosecond samples would otherwise give
  // identical fast-path percentiles on every run.
  constexpr double kBand = 0.005;
  const double lo = std::max(0.0, q - kBand) * total, hi = std::min(1.0, q + kBand) * total;
  double cum = 0, sum = 0, wsum = 0;
  uint32_t nearest = all.back().first;
  bool found = false;
  for (const auto& [v, w] : all) {
    const double mid = cum + w / 2;
    cum += w;
    if (!found && cum >= q * total) {
      nearest = v;
      found = true;
    }
    if (mid >= lo && mid <= hi) {
      sum += v * w;
      wsum += w;
    }
    if (mid > hi && found) break;
  }
  return (wsum > 0 ? sum / wsum : nearest) / 1e3;
}

double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

void Windows::add(const std::vector<const WindowTally*>& threads, double window_s) {
  for (size_t w = 0; w < kWindowsPerSegment; ++w) {
    uint64_t calls = 0;
    std::vector<const Samples*> lat;
    for (const WindowTally* t : threads) {
      calls += t->ops(w);
      lat.push_back(&t->lat(w));
    }
    const double q = tail_quantile(calls);
    tail_q = std::min(tail_q, q);
    mops.push_back(static_cast<double>(calls) / window_s / 1e6);
    p50_us.push_back(percentile_us(lat, 0.5));
    tail_us.push_back(percentile_us(lat, q));
  }
}

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kClusterCtor: return "cluster_ctor";
    case SpanKind::kArrayCreate: return "create";
    case SpanKind::kGet: return "get";
    case SpanKind::kSet: return "set";
    case SpanKind::kApply: return "apply";
    case SpanKind::kPagerank: return "pagerank_darray";
    case SpanKind::kClientGet: return "client_get";
    case SpanKind::kClientPut: return "client_put";
    case SpanKind::kEngineGet: return "engine_get";
    case SpanKind::kEnginePut: return "engine_put";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

const char* span_layer_name(SpanKind k) {
  switch (k) {
    case SpanKind::kClusterCtor:
    case SpanKind::kArrayCreate: return "runtime";
    case SpanKind::kGet:
    case SpanKind::kSet:
    case SpanKind::kApply: return "core";
    case SpanKind::kPagerank: return "graph";
    case SpanKind::kClientGet:
    case SpanKind::kClientPut: return "serve";
    case SpanKind::kEngineGet:
    case SpanKind::kEnginePut: return "kvs";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

void write_spans(Outcome& out, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  const std::string dir = ".bench_build/spans";
  const std::string path = dir + "/" + workload + ".csv";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::FILE* f = ec ? nullptr : std::fopen(path.c_str(), "w");
  if (!f) {
    out.detail("could not write " + path);
    return;
  }
  uint64_t kept = 0, dropped = 0;
  std::fprintf(f, "op,layer,kind,t0_ns,dur_ns,hit\n");
  for (const SpanLog* l : logs) {
    dropped += l->dropped();
    for (const Span& s : l->spans()) {
      ++kept;
      std::fprintf(f, "%llu,%s,%s,%llu,%llu,%d\n", static_cast<unsigned long long>(s.op),
                   span_layer_name(s.kind), span_kind_name(s.kind),
                   static_cast<unsigned long long>(s.t0_ns),
                   static_cast<unsigned long long>(s.dur_ns), s.hit ? 1 : 0);
    }
  }
  const bool ok = std::fclose(f) == 0;
  out.detail(fmt("spans: %llu kept in %s%s, %llu past the per-thread cap (timed, not kept)",
                 static_cast<unsigned long long>(kept), path.c_str(), ok ? "" : " (write failed)",
                 static_cast<unsigned long long>(dropped)));
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_mops", "Mops/s"},
      {"p50_us", "us"},
      {"tail_us", "us"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"trace.ops", "count"},
      {"core.get_hit_ns", "ns"},
      {"core.apply_hit_ns", "ns"},
      {"core.hit_ratio", "ratio"},
      {"core.get_miss_us", "us"},
      {"core.get_miss_us_p99", "us"},
      {"core.set_miss_us", "us"},
      {"core.set_miss_us_p99", "us"},
      {"runtime.misses_per_kop", "count/kop"},
      {"runtime.fills_per_kop", "count/kop"},
      {"runtime.invalidations_per_kop", "count/kop"},
      {"runtime.evictions_per_kop", "count/kop"},
      {"runtime.writeback_share", "ratio"},
      {"runtime.txns_per_kop", "count/kop"},
      {"runtime.prefetch_per_miss", "ratio"},
      {"cache.alloc_failures", "count"},
      {"runtime.combine_flushes_per_kop", "count/kop"},
      {"runtime.op_flushes_per_kop", "count/kop"},
      {"coherence.enter_operated_per_kop", "count/kop"},
      {"runtime.busy_frac", "ratio"},
      {"runtime.parks_per_kop", "count/kop"},
      {"net.tx_busy_frac", "ratio"},
      {"net.rx_busy_frac", "ratio"},
      {"net.frames_per_post", "ratio"},
      {"net.pool_hit_ratio", "ratio"},
      {"net.tx_bytes_per_op", "B/op"},
      {"comm.dropped_requests", "count"},
      {"fabric.sends_per_op", "count/op"},
      {"fabric.writes_per_op", "count/op"},
      {"fabric.bytes_per_op", "B/op"},
      {"fabric.retries", "count"},
      {"graph.applies_per_flush", "ratio"},
      {"kvs.engine_get_us", "us"},
      {"kvs.engine_put_us", "us"},
      {"serve.overhead_us", "us"},
      {"serve.hot_hit_ratio", "ratio"},
      {"serve.wire_share", "ratio"},
      {"serve.shed", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return m;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void counter_metrics(Outcome& out, const darray::obs::StatsSnapshot& d, double api_ops) {
  auto v = [&d](const std::string& name) { return static_cast<double>(d.value_or(name)); };
  const double misses = v("runtime.local_read_misses") + v("runtime.local_write_misses") +
                        v("runtime.local_operate_misses");
  const double kops = api_ops / 1e3;
  const double evictions =
      v("runtime.evict_clean") + v("runtime.evict_writeback") + v("runtime.evict_opflush");
  out.set("trace.ops", api_ops, "count");
  out.set("core.hit_ratio", api_ops > 0 ? 1.0 - misses / api_ops : 0, "ratio");
  out.set("runtime.misses_per_kop", ratio(misses, kops), "count/kop");
  out.set("runtime.fills_per_kop", ratio(v("runtime.fills"), kops), "count/kop");
  out.set("runtime.invalidations_per_kop", ratio(v("runtime.invalidations"), kops),
          "count/kop");
  out.set("runtime.evictions_per_kop", ratio(evictions, kops), "count/kop");
  out.set("runtime.writeback_share", ratio(v("runtime.evict_writeback"), evictions), "ratio");
  out.set("runtime.txns_per_kop", ratio(v("runtime.txns"), kops), "count/kop");
  out.set("runtime.prefetch_per_miss", ratio(v("runtime.prefetches_issued"), misses),
          "ratio");
  out.set("cache.alloc_failures", v("cache.alloc_failures"), "count");
  out.set("runtime.combine_flushes_per_kop", ratio(v("runtime.combine_flushes"), kops),
          "count/kop");
  out.set("runtime.op_flushes_per_kop", ratio(v("runtime.op_flushes_applied"), kops),
          "count/kop");
  out.set("coherence.enter_operated_per_kop", ratio(v("coherence.enter_operated"), kops),
          "count/kop");
  auto busy = [&v](const std::string& p) {
    return ratio(v(p + ".busy_ns"), v(p + ".busy_ns") + v(p + ".idle_ns"));
  };
  out.set("runtime.busy_frac", busy("duty.runtime"), "ratio");
  out.set("runtime.parks_per_kop", ratio(v("duty.runtime.parks"), kops), "count/kop");
  out.set("net.tx_busy_frac", busy("duty.tx"), "ratio");
  out.set("net.rx_busy_frac", busy("duty.rx"), "ratio");
  out.set("net.frames_per_post",
          ratio(v("fabric.coalesced_frames"), v("fabric.batched_posts")), "ratio");
  out.set("net.pool_hit_ratio", ratio(v("pool.hits"), v("pool.hits") + v("pool.misses")),
          "ratio");
  double tx_bytes = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    const std::string p = "node." + std::to_string(n) + ".";
    tx_bytes += v(p + "tx_send_bytes") + v(p + "tx_write_bytes") + v(p + "tx_rndz_bytes");
  }
  out.set("net.tx_bytes_per_op", ratio(tx_bytes, api_ops), "B/op");
  out.set("comm.dropped_requests", v("comm.dropped_requests"), "count");
  out.set("fabric.sends_per_op", ratio(v("fabric.sends"), api_ops), "count/op");
  out.set("fabric.writes_per_op", ratio(v("fabric.writes"), api_ops), "count/op");
  out.set("fabric.bytes_per_op",
          ratio(v("fabric.bytes_written") + v("fabric.bytes_read") + v("fabric.bytes_sent"),
                api_ops),
          "B/op");
  out.set("fabric.retries", v("fabric.retries"), "count");
}

void accumulate(darray::obs::StatsSnapshot& total, const darray::obs::StatsSnapshot& delta) {
  for (const darray::obs::StatEntry& e : delta.entries) {
    auto it = std::find_if(total.entries.begin(), total.entries.end(),
                           [&e](const darray::obs::StatEntry& t) { return t.name == e.name; });
    if (it == total.entries.end())
      total.add(e.name, e.value);
    else
      it->value += e.value;
  }
}

double span_percentile_us(const std::vector<const SpanLog*>& logs, SpanKind k, bool hit,
                          double q) {
  std::vector<const Samples*> parts;
  for (const SpanLog* l : logs) parts.push_back(&l->latency(k, hit));
  return percentile_us(parts, q);
}

uint64_t span_count(const std::vector<const SpanLog*>& logs, SpanKind k, bool hit) {
  uint64_t n = 0;
  for (const SpanLog* l : logs) n += l->latency(k, hit).seen();
  return n;
}

void core_span_metrics(Outcome& out, const std::vector<const SpanLog*>& logs) {
  using K = SpanKind;
  out.set("core.get_hit_ns", span_percentile_us(logs, K::kGet, true, 0.5) * 1e3, "ns");
  out.set("core.apply_hit_ns", span_percentile_us(logs, K::kApply, true, 0.5) * 1e3, "ns");
  out.set("core.get_miss_us", span_percentile_us(logs, K::kGet, false, 0.5), "us");
  out.set("core.get_miss_us_p99", span_percentile_us(logs, K::kGet, false, 0.99), "us");
  out.set("core.set_miss_us", span_percentile_us(logs, K::kSet, false, 0.5), "us");
  out.set("core.set_miss_us_p99", span_percentile_us(logs, K::kSet, false, 0.99), "us");
  auto n = [&logs](K k, bool hit) {
    return static_cast<unsigned long long>(span_count(logs, k, hit));
  };
  out.detail(fmt("core span samples: get hit %llu, get miss %llu, set hit (read-cached, upgrades "
                 "included) %llu, set miss %llu, apply warm %llu, apply cold %llu",
                 n(K::kGet, true), n(K::kGet, false), n(K::kSet, true), n(K::kSet, false),
                 n(K::kApply, true), n(K::kApply, false)));
}

void set_end_to_end(Outcome& out, const std::vector<double>& setup_s, const Windows& win) {
  out.set("setup_s", median(setup_s), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("throughput_mops", iq_mean(win.mops), "Mops/s");
  out.set("p50_us", iq_mean(win.p50_us), "us");
  out.set("tail_us", iq_mean(win.tail_us), "us");
}

namespace {

cpu_set_t& cpus_at_start() {
  static cpu_set_t s;
  return s;
}

}  // namespace

int pin_to_one_cpu() {
  cpu_set_t& allowed = cpus_at_start();
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? 1 : -1;
  }
  return -1;
}

AllCpus::AllCpus() {
  CPU_ZERO(&saved_);
  sched_getaffinity(0, sizeof saved_, &saved_);
  sched_setaffinity(0, sizeof(cpu_set_t), &cpus_at_start());
}

AllCpus::~AllCpus() { sched_setaffinity(0, sizeof saved_, &saved_); }

int AllCpus::cpus() const {
  cpu_set_t now;
  CPU_ZERO(&now);
  return sched_getaffinity(0, sizeof now, &now) == 0 ? CPU_COUNT(&now) : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
