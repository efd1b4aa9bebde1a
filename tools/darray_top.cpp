// darray-top: a terminal dashboard for a live DArray cluster. Polls the
// embedded telemetry listener's /series.json and /stats.json (see
// docs/observability.md) and renders per-node op throughput, remote traffic,
// p50/p99 latency sparklines, the serve-path stage breakdown, service-thread
// duty cycles, coherence transition rates, and chaos fault counters. No
// curses, no deps: plain ANSI escapes and a blocking socket.
//
//   darray-top [--host 127.0.0.1] [--port 9464] [--interval MS]
//              [--frames N] [--once]
//
//   --interval   poll + redraw period in milliseconds (default 1000)
//   --frames N   render N frames then exit 0 (0 = run until ^C)
//   --once       one frame, no screen clearing: CI / piping friendly
//
// Pair with `chaos_ablation --serve`, or any harness that sets
// cfg.telemetry_serve. Exits 1 if the endpoint never answers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

struct Point {
  uint64_t t = 0;
  uint64_t v = 0;
};
struct Series {
  bool rate = false;
  std::vector<Point> pts;
};
struct Snapshot {
  uint64_t sample_count = 0;
  std::map<std::string, Series> series;
  // Live StatsRegistry values from /stats.json. Point-sample (.gauge /
  // percentile) reads fall back to these when the sampler has not produced
  // enough points yet — a --once frame taken before the second sample would
  // otherwise show no gauges at all.
  std::map<std::string, uint64_t> live;
};

// --- transport ---------------------------------------------------------------

std::string http_get(const std::string& host, uint16_t port, const std::string& target,
                     bool& ok) {
  ok = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    off += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos || resp.compare(0, 7, "HTTP/1.") != 0) return {};
  ok = resp.compare(9, 3, "200") == 0;
  return resp.substr(hdr_end + 4);
}

// --- /series.json parsing ----------------------------------------------------
// The producer is TimeSeriesStore::to_json — a fixed shape with no string
// escapes in metric names, so a cursor scan is enough:
//   {"sample_count": N, "series": [
//     {"metric": "...", "rate": true, "points": [[t, v], ...]}, ...]}

uint64_t scan_u64(const std::string& s, size_t& pos) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(s.c_str() + pos, &end, 10);
  pos = static_cast<size_t>(end - s.c_str());
  return v;
}

bool parse_series_json(const std::string& body, Snapshot& out) {
  size_t pos = body.find("\"sample_count\"");
  if (pos == std::string::npos) return false;
  pos = body.find(':', pos);
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < body.size() && body[pos] == ' ') ++pos;
  out.sample_count = scan_u64(body, pos);

  for (;;) {
    pos = body.find("\"metric\"", pos);
    if (pos == std::string::npos) break;
    size_t q0 = body.find('"', body.find(':', pos) + 1);
    if (q0 == std::string::npos) return false;
    size_t q1 = body.find('"', q0 + 1);
    if (q1 == std::string::npos) return false;
    Series ser;
    const std::string name = body.substr(q0 + 1, q1 - q0 - 1);

    size_t rpos = body.find("\"rate\"", q1);
    if (rpos == std::string::npos) return false;
    rpos = body.find(':', rpos) + 1;
    while (rpos < body.size() && body[rpos] == ' ') ++rpos;
    ser.rate = body.compare(rpos, 4, "true") == 0;

    size_t ppos = body.find("\"points\"", rpos);
    if (ppos == std::string::npos) return false;
    ppos = body.find('[', ppos);
    if (ppos == std::string::npos) return false;
    ++ppos;  // inside the points array
    for (;;) {
      while (ppos < body.size() &&
             (body[ppos] == ' ' || body[ppos] == ',' || body[ppos] == '\n'))
        ++ppos;
      if (ppos >= body.size() || body[ppos] == ']') break;
      if (body[ppos] != '[') return false;
      ++ppos;
      Point p;
      p.t = scan_u64(body, ppos);
      while (ppos < body.size() && (body[ppos] == ',' || body[ppos] == ' ')) ++ppos;
      p.v = scan_u64(body, ppos);
      while (ppos < body.size() && body[ppos] != ']') ++ppos;
      ++ppos;
      ser.pts.push_back(p);
    }
    out.series.emplace(name, std::move(ser));
    pos = ppos;
  }
  return true;
}

// --- /stats.json parsing -----------------------------------------------------
// StatsSnapshot::to_json is one flat object of "dotted.name": value pairs with
// no escapes in names, so the same cursor-scan style works.

bool parse_stats_json(const std::string& body, std::map<std::string, uint64_t>& out) {
  size_t pos = body.find('{');
  if (pos == std::string::npos) return false;
  for (;;) {
    const size_t q0 = body.find('"', pos);
    if (q0 == std::string::npos) break;
    const size_t q1 = body.find('"', q0 + 1);
    if (q1 == std::string::npos) return false;
    size_t vpos = body.find(':', q1);
    if (vpos == std::string::npos) return false;
    ++vpos;
    while (vpos < body.size() && (body[vpos] == ' ' || body[vpos] == '\n')) ++vpos;
    out[body.substr(q0 + 1, q1 - q0 - 1)] = scan_u64(body, vpos);
    pos = vpos;
  }
  return true;
}

// --- derived values ----------------------------------------------------------

const Series* find(const Snapshot& s, const std::string& name) {
  const auto it = s.series.find(name);
  return it == s.series.end() ? nullptr : &it->second;
}

// A point-sample metric's current value: newest ring point when the sampler
// has one, else the live registry snapshot (fixes empty gauges under --once).
uint64_t point_value(const Snapshot& s, const std::string& name, bool& present) {
  const Series* ser = find(s, name);
  if (ser != nullptr && !ser->pts.empty()) {
    present = true;
    return ser->pts.back().v;
  }
  const auto it = s.live.find(name);
  present = it != s.live.end();
  return present ? it->second : 0;
}

// Per-second rate over the newest interval of a delta (rate) series.
double latest_rate(const Series* s) {
  if (s == nullptr || s->pts.size() < 2) return 0.0;
  const Point& a = s->pts[s->pts.size() - 2];
  const Point& b = s->pts.back();
  if (b.t <= a.t) return 0.0;
  return static_cast<double>(b.v) * 1e9 / static_cast<double>(b.t - a.t);
}

uint64_t window_sum(const Series* s) {
  uint64_t t = 0;
  if (s != nullptr)
    for (const Point& p : s->pts) t += p.v;
  return t;
}

// Unicode block sparkline of the newest `width` values, scaled to their max.
std::string sparkline(const Series* s, size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (s == nullptr || s->pts.empty()) return std::string(width, '.');
  const size_t n = std::min(width, s->pts.size());
  const size_t first = s->pts.size() - n;
  uint64_t hi = 1;
  for (size_t i = first; i < s->pts.size(); ++i) hi = std::max(hi, s->pts[i].v);
  std::string out;
  for (size_t i = 0; i + n < width; ++i) out += ' ';
  for (size_t i = first; i < s->pts.size(); ++i)
    out += kBlocks[(s->pts[i].v * 7 + hi / 2) / hi];
  return out;
}

std::string fmt_si(double v) {
  char buf[32];
  if (v >= 1e9) std::snprintf(buf, sizeof(buf), "%7.2fG", v / 1e9);
  else if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%7.2fM", v / 1e6);
  else if (v >= 1e3) std::snprintf(buf, sizeof(buf), "%7.2fk", v / 1e3);
  else std::snprintf(buf, sizeof(buf), "%7.1f ", v);
  return buf;
}

std::string duty_bar(double frac, size_t width) {
  frac = std::clamp(frac, 0.0, 1.0);
  const size_t fill = static_cast<size_t>(frac * static_cast<double>(width) + 0.5);
  std::string b = "[";
  for (size_t i = 0; i < width; ++i) b += i < fill ? '#' : '.';
  return b + "]";
}

// --- rendering ---------------------------------------------------------------

constexpr size_t kSpark = 30;

void render(const Snapshot& snap, const std::string& host, uint16_t port,
            uint64_t frame) {
  const Series* any = nullptr;
  for (const auto& [name, s] : snap.series)
    if (s.pts.size() >= 2) {
      any = &s;
      break;
    }
  double period_ms = 0;
  if (any != nullptr) {
    const Point& a = any->pts[any->pts.size() - 2];
    const Point& b = any->pts.back();
    period_ms = static_cast<double>(b.t - a.t) / 1e6;
  }
  std::printf("darray-top — %s:%u   samples %llu   period %.0f ms   frame %llu\n",
              host.c_str(), port, static_cast<unsigned long long>(snap.sample_count),
              period_ms, static_cast<unsigned long long>(frame));

  // Per-node op throughput (traced API ops) + remote traffic.
  std::printf("\n  %-8s %9s %-*s %9s %9s\n", "node", "ops/s", static_cast<int>(kSpark),
              "history", "remote/s", "fills/s");
  double total_ops = 0, total_remote = 0, total_miss = 0;
  for (uint32_t n = 0; n < 64; ++n) {
    const std::string p = "node." + std::to_string(n) + ".";
    const Series* ops = find(snap, p + "ops");
    if (ops == nullptr) break;
    const double ops_s = latest_rate(ops);
    const double rem_s = latest_rate(find(snap, p + "remote_reqs"));
    total_ops += ops_s;
    total_remote += rem_s;
    total_miss += latest_rate(find(snap, p + "local_misses"));
    std::printf("  node %-3u %s %s %s %s\n", n, fmt_si(ops_s).c_str(),
                sparkline(ops, kSpark).c_str(), fmt_si(rem_s).c_str(),
                fmt_si(latest_rate(find(snap, p + "fills"))).c_str());
  }
  const double local_hits = std::max(1.0, total_ops - total_miss);
  char ratio[32] = "-";
  if (total_ops > 0)
    std::snprintf(ratio, sizeof(ratio), "%.3f", total_remote / local_hits);
  std::printf("  cluster  %s ops/s   remote:local %s  (%.0f%% of ops miss local cache)\n",
              fmt_si(total_ops).c_str(), ratio,
              total_ops > 0 ? 100.0 * total_miss / total_ops : 0.0);

  // Tx byte-level traffic split by transport path: eager SEND headers, eager
  // zero-copy WRITE payloads, and rendezvous READ pulls. Rates are B/s.
  double tx_send = 0, tx_write = 0, tx_rndz = 0;
  for (uint32_t n = 0; n < 64; ++n) {
    const std::string p = "node." + std::to_string(n) + ".";
    const Series* s = find(snap, p + "tx_send_bytes");
    if (s == nullptr && find(snap, p + "ops") == nullptr) break;
    tx_send += latest_rate(s);
    tx_write += latest_rate(find(snap, p + "tx_write_bytes"));
    tx_rndz += latest_rate(find(snap, p + "tx_rndz_bytes"));
  }
  const double tx_total = tx_send + tx_write + tx_rndz;
  std::printf("  tx B/s   send %s  write %s  rndz %s  (%.0f%% of bytes via rendezvous)\n",
              fmt_si(tx_send).c_str(), fmt_si(tx_write).c_str(), fmt_si(tx_rndz).c_str(),
              tx_total > 0 ? 100.0 * tx_rndz / tx_total : 0.0);
  const double rndz_started = latest_rate(find(snap, "net.rndz.started"));
  const double rndz_fall = latest_rate(find(snap, "net.rndz.fallbacks"));
  if (rndz_started > 0 || rndz_fall > 0)
    std::printf("  rndz/s   started %s  completed %s  fallbacks %s\n",
                fmt_si(rndz_started).c_str(),
                fmt_si(latest_rate(find(snap, "net.rndz.completed"))).c_str(),
                fmt_si(rndz_fall).c_str());

  // Client-serving front door (src/serve), when a KvsService is attached.
  const double srv_acc = latest_rate(find(snap, "serve.accepted"));
  const double srv_shed = latest_rate(find(snap, "serve.shed"));
  const double srv_hot = latest_rate(find(snap, "serve.hot_hits"));
  bool have_inflight = false;
  const uint64_t srv_inflight = point_value(snap, "serve.inflight.gauge", have_inflight);
  if (srv_acc > 0 || srv_shed > 0 || have_inflight)
    std::printf("  serve/s  accepted %s  shed %s  hot-hits %s  inflight %llu  (%.0f%% shed)\n",
                fmt_si(srv_acc).c_str(), fmt_si(srv_shed).c_str(),
                fmt_si(srv_hot).c_str(), static_cast<unsigned long long>(srv_inflight),
                srv_acc + srv_shed > 0 ? 100.0 * srv_shed / (srv_acc + srv_shed) : 0.0);

  // Latency percentiles (point series sampled from the op histograms; a frame
  // taken before the sampler's first tick falls back to the live snapshot).
  std::printf("\n  %-8s %9s %-*s %9s %-*s\n", "op", "p50 ns", static_cast<int>(kSpark),
              "", "p99 ns", static_cast<int>(kSpark), "");
  static const char* kOps[] = {"get", "set", "apply", "get_range", "set_range"};
  for (const char* op : kOps) {
    const std::string base = std::string("hist.op.") + op;
    bool h50 = false, h99 = false;
    const uint64_t v50 = point_value(snap, base + ".p50_ns", h50);
    const uint64_t v99 = point_value(snap, base + ".p99_ns", h99);
    if (!h50 && !h99) continue;
    std::printf("  %-8s %s %s %s %s\n", op,
                fmt_si(static_cast<double>(v50)).c_str(),
                sparkline(find(snap, base + ".p50_ns"), kSpark).c_str(),
                fmt_si(static_cast<double>(v99)).c_str(),
                sparkline(find(snap, base + ".p99_ns"), kSpark).c_str());
  }

  // Serve-path stage breakdown (obs v4 request journeys): where one request's
  // end-to-end time goes. Only present while a KvsService handles traffic.
  static const char* kStages[] = {"admit", "queue", "backend", "net", "deliver"};
  bool stage_hdr = false;
  for (const char* st : kStages) {
    const std::string base = std::string("hist.stage.") + st;
    bool h50 = false, h99 = false;
    const uint64_t v50 = point_value(snap, base + ".p50_ns", h50);
    const uint64_t v99 = point_value(snap, base + ".p99_ns", h99);
    if (!h50 && !h99) continue;
    if (!stage_hdr) {
      std::printf("\n  %-8s %9s %-*s %9s %-*s\n", "stage", "p50 ns",
                  static_cast<int>(kSpark), "", "p99 ns", static_cast<int>(kSpark), "");
      stage_hdr = true;
    }
    std::printf("  %-8s %s %s %s %s\n", st,
                fmt_si(static_cast<double>(v50)).c_str(),
                sparkline(find(snap, base + ".p50_ns"), kSpark).c_str(),
                fmt_si(static_cast<double>(v99)).c_str(),
                sparkline(find(snap, base + ".p99_ns"), kSpark).c_str());
  }
  if (stage_hdr) {
    // journey.retained is a counter: the series view holds per-interval
    // deltas (sum the window), the live fallback holds the running total.
    const Series* rser = find(snap, "journey.retained");
    bool hr = false, ht = false;
    const uint64_t retained =
        rser != nullptr ? window_sum(rser) : point_value(snap, "journey.retained", hr);
    const uint64_t thresh = point_value(snap, "journey.threshold_ns.gauge", ht);
    std::printf("  journeys retained %llu  tail threshold %s ns  (GET /slow.json)\n",
                static_cast<unsigned long long>(retained),
                fmt_si(static_cast<double>(thresh)).c_str());
  }

  // Duty cycle of the nodes' one service thread, the comm progress thread
  // ("rx": it also runs the Tx pass and leftover engine passes), from the
  // busy/idle deltas.
  {
    const double busy = latest_rate(find(snap, "duty.rx.busy_ns"));
    const double idle = latest_rate(find(snap, "duty.rx.idle_ns"));
    const double frac = busy + idle > 0 ? busy / (busy + idle) : 0.0;
    std::printf("\n  duty   %-8s %3.0f%% %s\n", "rx", frac * 100, duty_bar(frac, 10).c_str());
  }

  // Coherence transitions and chaos faults: per-second rates this interval,
  // plus totals over the visible ring window.
  std::printf("\n  coherence/s ");
  for (const auto& [name, s] : snap.series) {
    if (name.rfind("coherence.enter_", 0) != 0) continue;
    std::printf(" %s=%s", name.c_str() + sizeof("coherence.enter_") - 1,
                fmt_si(latest_rate(&s)).c_str());
  }
  std::printf("\n  compute/s   ");
  bool compute_seen = false;
  for (const auto& [name, s] : snap.series) {
    if (name.rfind("compute.", 0) != 0) continue;
    compute_seen = true;
    std::printf(" %s=%s", name.c_str() + sizeof("compute.") - 1,
                fmt_si(latest_rate(&s)).c_str());
  }
  if (!compute_seen) std::printf(" (no collectives)");
  std::printf("\n  chaos (window totals)");
  bool chaos_seen = false;
  for (const auto& [name, s] : snap.series) {
    if (name.rfind("chaos.", 0) != 0) continue;
    chaos_seen = true;
    std::printf(" %s=%llu", name.c_str() + sizeof("chaos.") - 1,
                static_cast<unsigned long long>(window_sum(&s)));
  }
  if (!chaos_seen) std::printf(" (no fault plan)");
  std::printf("\n");
  // Sampling profiler (obs v5): sample/signal rates while a session runs and
  // the ring-overwrite rate that says whether the window is still lossless.
  const double prof_samples = latest_rate(find(snap, "profile.samples"));
  const double prof_signals = latest_rate(find(snap, "profile.signals"));
  const double prof_dropped = latest_rate(find(snap, "profile.dropped"));
  if (prof_samples > 0 || prof_signals > 0)
    std::printf("  profile/s   samples %s  signals %s  dropped %s  (GET /profile)\n",
                fmt_si(prof_samples).c_str(), fmt_si(prof_signals).c_str(),
                fmt_si(prof_dropped).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 9464;
  uint64_t interval_ms = 1000;
  uint64_t frames = 0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--host") host = next();
    else if (a == "--port") port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    else if (a == "--interval") interval_ms = std::strtoull(next(), nullptr, 10);
    else if (a == "--frames") frames = std::strtoull(next(), nullptr, 10);
    else if (a == "--once") { once = true; frames = 1; }
    else {
      std::fprintf(stderr,
                   "usage: darray-top [--host IP] [--port N] [--interval MS] "
                   "[--frames N] [--once]\n");
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }

  uint64_t frame = 0, failures = 0;
  for (;;) {
    bool ok = false;
    const std::string body = http_get(host, port, "/series.json", ok);
    Snapshot snap;
    if (!ok || !parse_series_json(body, snap)) {
      if (++failures >= 5 || once) {
        std::fprintf(stderr, "darray-top: no telemetry at %s:%u%s\n", host.c_str(), port,
                     once ? "" : " after 5 attempts");
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    failures = 0;
    // Live registry values back point-sample displays until the sampler's
    // ring has data of its own; best-effort.
    bool stats_ok = false;
    const std::string stats_body = http_get(host, port, "/stats.json", stats_ok);
    if (stats_ok) parse_stats_json(stats_body, snap.live);
    ++frame;
    if (!once) std::printf("\x1b[H\x1b[J");  // home + clear below: less flicker
    render(snap, host, port, frame);
    if (frames != 0 && frame >= frames) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
