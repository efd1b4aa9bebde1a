#include "obs/stats_registry.hpp"

#include <cstdio>
#include <mutex>

namespace darray::obs {

void StatsSnapshot::add_histogram(const std::string& prefix, const HistogramSnapshot& h) {
  add(prefix + ".count", h.count);
  add(prefix + ".sum_ns", h.sum_ns);
  add(prefix + ".mean_ns", static_cast<uint64_t>(h.mean_ns()));
  add(prefix + ".p50_ns", h.percentile_ns(0.50));
  add(prefix + ".p90_ns", h.percentile_ns(0.90));
  add(prefix + ".p99_ns", h.percentile_ns(0.99));
  add(prefix + ".p999_ns", h.percentile_ns(0.999));
  add(prefix + ".max_ns", h.max_ns());
  // Raw buckets, sparse (non-empty only) and per-bucket rather than
  // cumulative: a delta between two snapshots then subtracts bucket-wise even
  // when a bucket first appears after the baseline — cumulative entries would
  // double-count everything below a newly-occupied boundary.
  for (int i = 0; i < kHistBuckets; ++i) {
    const uint64_t c = h.buckets[static_cast<size_t>(i)];
    if (c == 0) continue;
    add(prefix + ".bkt_" + std::to_string(AtomicLatencyHistogram::bucket_upper(i)), c);
  }
}

// Percentile/mean/max entries are point samples: the current value, not the
// delta, is what a reader wants. Everything else is treated as monotonic.
bool stats_is_point_sample(std::string_view name) {
  // ".gauge" marks instantaneous levels (e.g. serve.inflight.gauge): the
  // sampler must not difference them and /metrics exposes them as gauges.
  for (const char* suffix :
       {".mean_ns", ".p50_ns", ".p90_ns", ".p99_ns", ".p999_ns", ".max_ns", ".gauge"}) {
    const std::string_view s(suffix);
    if (name.size() >= s.size() && name.substr(name.size() - s.size()) == s) return true;
  }
  return false;
}

StatsSnapshot StatsSnapshot::delta_from(const StatsSnapshot& base) const {
  StatsSnapshot out;
  out.entries.reserve(entries.size());
  for (const StatEntry& e : entries) {
    uint64_t v = e.value;
    if (!stats_is_point_sample(e.name)) {
      const uint64_t* b = base.find(e.name);
      if (b) v = v > *b ? v - *b : 0;
    }
    out.entries.push_back({e.name, v});
  }
  return out;
}

const uint64_t* StatsSnapshot::find(std::string_view name) const {
  for (const StatEntry& e : entries)
    if (e.name == name) return &e.value;
  return nullptr;
}

uint64_t StatsSnapshot::value_or(std::string_view name, uint64_t def) const {
  const uint64_t* v = find(name);
  return v ? *v : def;
}

std::string StatsSnapshot::to_json(const char* line_prefix) const {
  std::string out = "{";
  char buf[32];
  for (size_t i = 0; i < entries.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += line_prefix;
    out += "  \"";
    out += entries[i].name;
    out += "\": ";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(entries[i].value));
    out += buf;
  }
  out += "\n";
  out += line_prefix;
  out += "}";
  return out;
}

void StatsRegistry::add_source(Source src) {
  std::lock_guard lk(mu_);
  sources_.push_back(std::move(src));
}

StatsSnapshot StatsRegistry::snapshot() const {
  StatsSnapshot s;
  std::lock_guard lk(mu_);
  for (const Source& src : sources_) src(s);
  return s;
}

void StatsRegistry::mark_baseline(const std::string& tag) {
  // Take the snapshot before locking: snapshot() acquires mu_ itself and the
  // SpinLock is not reentrant.
  StatsSnapshot s = snapshot();
  std::lock_guard lk(mu_);
  for (auto& [name, snap] : baselines_) {
    if (name == tag) {
      snap = std::move(s);
      return;
    }
  }
  baselines_.emplace_back(tag, std::move(s));
}

StatsSnapshot StatsRegistry::delta_since(const std::string& tag) const {
  StatsSnapshot now = snapshot();
  std::lock_guard lk(mu_);
  for (const auto& [name, snap] : baselines_)
    if (name == tag) return now.delta_from(snap);
  return now;
}

}  // namespace darray::obs
