// darray-trace: offline reader for trace dumps produced by
// obs::dump_trace_json (bench/chaos_ablation --trace, or any harness calling
// the dump API). The dump is line-oriented — one event object per line — so
// this parses with sscanf instead of pulling in a JSON library. Both dump
// format v1 (no ring ids) and v2 (per-ring accounting, "r" per event) load.
//
//   darray-trace TRACE.json                summary: drops, event counts, spans
//   darray-trace TRACE.json --slowest N    top N slowest API op spans
//   darray-trace TRACE.json --corr HEX     every event of one correlation id
//   darray-trace TRACE.json --perfetto OUT Chrome trace-event JSON for
//                                          ui.perfetto.dev (one track per
//                                          thread per node, flow arrows per
//                                          correlation id)
//
// Request-journey dumps (obs v4) use a different line format — the retained
// tail of a serving run, as captured from /slow.json or dump_json:
//
//   darray-trace --journeys SLOW.json                per-stage breakdown table
//   darray-trace --journeys SLOW.json --perfetto OUT stage spans as child
//                                          slices under each journey's parent
//                                          slice, cross-node flow arrows keyed
//                                          by the journey's correlation id
//
// Sampling-profiler dumps (obs::dump_profile; bench/serve_soak --profile).
// Symbolization happened inside the dumping process (the dump embeds a dladdr
// table plus a /proc/self/maps copy), so this works on any machine:
//
//   darray-trace --profile PROFILE.prof                 totals, per-thread
//                                          split, top-20 self/total table
//   darray-trace --profile PROFILE.prof --top N         same with N rows
//   darray-trace --profile PROFILE.prof --collapsed OUT flamegraph-collapsed
//                                          folded stacks ("-" = stdout)
//   darray-trace --profile PROFILE.prof --perfetto OUT  Chrome trace-event
//                                          JSON with stackFrames/samples
//                                          sampling tracks
//
// Exit status: 0 on success, 1 on a malformed/unreadable dump.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "prof_report.hpp"

namespace {

using darray::obs::Ev;
using darray::obs::OpKind;

struct Rec {
  uint64_t t = 0;
  uint64_t c = 0;
  std::string ev;
  uint32_t k = 0;
  uint32_t node = 0;
  uint32_t a = 0;
  uint64_t b = 0;
  uint32_t ring = 0;  // 0 for v1 dumps (no per-ring attribution)
};

struct RingInfo {
  uint32_t id = 0;
  uint64_t pushed = 0;
  uint64_t dropped = 0;
};

// Dump-header accounting. v1 carries the totals; v2 adds the per-ring table.
struct DumpInfo {
  int format = 0;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  std::vector<RingInfo> rings;
};

bool parse_dump(const char* path, std::vector<Rec>& out, DumpInfo& info) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) {
    std::fprintf(stderr, "darray-trace: cannot open %s\n", path);
    return false;
  }
  std::string line;
  char chunk[512];
  bool header_done = false;
  auto getline = [&](std::string& l) -> bool {
    l.clear();
    while (std::fgets(chunk, sizeof(chunk), f)) {
      l += chunk;
      if (!l.empty() && l.back() == '\n') return true;
    }
    return !l.empty();
  };
  while (getline(line)) {
    if (!header_done) {
      // The header is the first line; rings lists can make it long, so it is
      // read unbounded above.
      const char* h = std::strstr(line.c_str(), "\"trace_format\":");
      if (h) {
        std::sscanf(h, "\"trace_format\": %d", &info.format);
        if (const char* r = std::strstr(line.c_str(), "\"recorded\":"))
          std::sscanf(r, "\"recorded\": %" SCNu64, &info.recorded);
        if (const char* d = std::strstr(line.c_str(), "\"dropped\":"))
          std::sscanf(d, "\"dropped\": %" SCNu64, &info.dropped);
        for (const char* p = std::strstr(line.c_str(), "{\"id\":"); p != nullptr;
             p = std::strstr(p + 1, "{\"id\":")) {
          RingInfo ri;
          if (std::sscanf(p, "{\"id\": %u, \"pushed\": %" SCNu64 ", \"dropped\": %" SCNu64,
                          &ri.id, &ri.pushed, &ri.dropped) == 3)
            info.rings.push_back(ri);
        }
        header_done = true;
        continue;
      }
    }
    const char* p = std::strstr(line.c_str(), "{\"t\":");
    if (!p) continue;  // closing lines
    Rec r;
    char ev[32] = {0};
    int n = std::sscanf(p,
                        "{\"t\": %" SCNu64 ", \"c\": %" SCNu64
                        ", \"ev\": \"%31[^\"]\", \"k\": %u, \"node\": %u, "
                        "\"a\": %u, \"b\": %" SCNu64 ", \"r\": %u}",
                        &r.t, &r.c, ev, &r.k, &r.node, &r.a, &r.b, &r.ring);
    if (n == 7) r.ring = 0;  // v1 event line (no "r" field)
    if (n != 7 && n != 8) {
      std::fprintf(stderr, "darray-trace: malformed event line: %s", line.c_str());
      std::fclose(f);
      return false;
    }
    r.ev = ev;
    out.push_back(std::move(r));
  }
  std::fclose(f);
  return true;
}

struct Span {
  uint64_t corr = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint32_t kind = 0;
  uint32_t node = 0;
  uint32_t ring = 0;  // ring of the kOpBegin event
  uint64_t index = 0;
  uint64_t events = 0;  // events carrying this corr, ends included
};

const char* kind_name(uint32_t k) {
  return darray::obs::op_kind_name(static_cast<OpKind>(k));
}

// Pair kOpBegin/kOpEnd per correlation id and count the events in between.
std::vector<Span> build_spans(const std::vector<Rec>& evs) {
  std::unordered_map<uint64_t, Span> by_corr;
  for (const Rec& r : evs) {
    if (r.c == 0) continue;
    Span& s = by_corr[r.c];
    s.corr = r.c;
    s.events++;
    if (r.ev == "op_begin") {
      s.begin_ns = r.t;
      s.kind = r.k;
      s.node = r.node;
      s.ring = r.ring;
      s.index = r.b;
    } else if (r.ev == "op_end") {
      s.end_ns = r.t;
    }
  }
  std::vector<Span> spans;
  spans.reserve(by_corr.size());
  for (auto& [corr, s] : by_corr)
    if (s.begin_ns != 0 && s.end_ns >= s.begin_ns) spans.push_back(s);
  return spans;
}

int cmd_summary(const std::vector<Rec>& evs, const DumpInfo& info) {
  // Drop accounting first: a ring that wrapped overwrote its oldest events,
  // so the retained event list under-represents the recorded traffic. The
  // header totals (and, for v2 dumps, the per-ring table) keep that honest.
  if (info.format != 0) {
    const double drop_pct =
        info.recorded ? 100.0 * static_cast<double>(info.dropped) /
                            static_cast<double>(info.recorded)
                      : 0.0;
    std::printf("recorded %" PRIu64 ", retained %zu, dropped %" PRIu64 " (%.1f%%)\n",
                info.recorded, evs.size(), info.dropped, drop_pct);
    if (info.dropped != 0 && info.format < 2)
      std::printf("  (v1 dump: no per-ring attribution — re-dump with format 2)\n");
  }
  if (!info.rings.empty()) {
    std::printf("\nper-ring:\n  %4s %10s %10s %10s\n", "id", "pushed", "retained",
                "dropped");
    for (const RingInfo& r : info.rings) {
      if (r.pushed == 0) continue;
      std::printf("  %4u %10" PRIu64 " %10" PRIu64 " %10" PRIu64 "%s\n", r.id, r.pushed,
                  r.pushed - r.dropped, r.dropped, r.dropped ? "  <-- wrapped" : "");
    }
  }

  std::map<std::string, uint64_t> counts;
  for (const Rec& r : evs) counts[r.ev]++;
  std::printf("\n%zu events\n\nby type:\n", evs.size());
  for (const auto& [name, n] : counts)
    std::printf("  %-14s %10" PRIu64 "\n", name.c_str(), n);

  const std::vector<Span> spans = build_spans(evs);
  if (spans.empty()) {
    std::printf("\nno complete op spans (begin+end pairs) in the dump\n");
    return 0;
  }
  // Per-op-kind latency: count, mean, max over the completed spans.
  struct Agg {
    uint64_t n = 0, sum = 0, max = 0;
  };
  std::map<std::string, Agg> by_kind;
  for (const Span& s : spans) {
    Agg& a = by_kind[kind_name(s.kind)];
    const uint64_t d = s.end_ns - s.begin_ns;
    a.n++;
    a.sum += d;
    a.max = std::max(a.max, d);
  }
  std::printf("\ncompleted op spans: %zu\n", spans.size());
  std::printf("  %-11s %9s %12s %12s\n", "op", "count", "mean_ns", "max_ns");
  for (const auto& [name, a] : by_kind)
    std::printf("  %-11s %9" PRIu64 " %12" PRIu64 " %12" PRIu64 "\n", name.c_str(), a.n,
                a.sum / a.n, a.max);
  return 0;
}

int cmd_slowest(const std::vector<Rec>& evs, size_t top_n) {
  std::vector<Span> spans = build_spans(evs);
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    return x.end_ns - x.begin_ns > y.end_ns - y.begin_ns;
  });
  if (spans.size() > top_n) spans.resize(top_n);
  std::printf("%-11s %6s %12s %12s %8s  %s\n", "op", "node", "index", "ns", "events",
              "corr");
  for (const Span& s : spans)
    std::printf("%-11s %6u %12" PRIu64 " %12" PRIu64 " %8" PRIu64 "  %" PRIx64 "\n",
                kind_name(s.kind), s.node, s.index, s.end_ns - s.begin_ns, s.events,
                s.corr);
  return 0;
}

int cmd_corr(const std::vector<Rec>& evs, uint64_t corr) {
  uint64_t t0 = 0;
  size_t n = 0;
  for (const Rec& r : evs) {
    if (r.c != corr) continue;
    if (t0 == 0) t0 = r.t;
    std::printf("%+12" PRId64 " ns  %-14s node=%u ring=%u k=%u a=%u b=%" PRIu64 "\n",
                static_cast<int64_t>(r.t - t0), r.ev.c_str(), r.node, r.ring, r.k, r.a,
                r.b);
    ++n;
  }
  if (n == 0) {
    std::fprintf(stderr, "darray-trace: no events with corr %" PRIx64 "\n", corr);
    return 1;
  }
  return 0;
}

// --- Perfetto / Chrome trace-event exporter ----------------------------------
// One process per node (pid = node id, 65535 = "transport": events recorded
// with no node context), one track per trace ring (tid = ring id ≈ recording
// thread). Completed API op spans render as full slices; every other
// corr-carrying event renders as a thin slice so the flow arrows — one chain
// per correlation id, in timestamp order — have something to bind to.

constexpr uint32_t kNoNode = 0xffff;  // obs::kNoTraceNode as parsed

struct TrackKey {
  uint32_t pid;
  uint32_t tid;
  bool operator<(const TrackKey& o) const {
    return pid != o.pid ? pid < o.pid : tid < o.tid;
  }
};

int cmd_perfetto(const std::vector<Rec>& evs, const std::vector<Span>& spans,
                 const char* out_path) {
  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "darray-trace: cannot open %s for writing\n", out_path);
    return 1;
  }
  uint64_t t0 = ~0ull;
  for (const Rec& r : evs) t0 = std::min(t0, r.t);
  if (evs.empty()) t0 = 0;
  auto us = [t0](uint64_t t) { return static_cast<double>(t - t0) / 1000.0; };

  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto emit = [&](const char* fmt, auto... args) {
    std::fprintf(f, "%s", first ? "" : ",\n");
    first = false;
    std::fprintf(f, fmt, args...);
  };

  // Track metadata: name every process and thread Perfetto will show.
  std::map<TrackKey, bool> tracks;
  for (const Rec& r : evs) tracks[{r.node, r.ring}] = true;
  std::map<uint32_t, bool> pids;
  for (const auto& [k, _] : tracks) pids[k.pid] = true;
  for (const auto& [pid, _] : pids) {
    if (pid == kNoNode)
      emit("{\"ph\": \"M\", \"pid\": %u, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"transport\"}}",
           pid);
    else
      emit("{\"ph\": \"M\", \"pid\": %u, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"node %u\"}}",
           pid, pid);
  }
  for (const auto& [k, _] : tracks)
    emit("{\"ph\": \"M\", \"pid\": %u, \"tid\": %u, \"name\": \"thread_name\", "
         "\"args\": {\"name\": \"ring %u\"}}",
         k.pid, k.tid, k.tid);

  // Completed API op spans: full slices on the issuing thread's track.
  std::unordered_map<uint64_t, const Span*> span_by_corr;
  for (const Span& s : spans) span_by_corr[s.corr] = &s;
  for (const Span& s : spans)
    emit("{\"ph\": \"X\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
         "\"name\": \"%s\", \"cat\": \"op\", "
         "\"args\": {\"corr\": \"%" PRIx64 "\", \"index\": %" PRIu64 "}}",
         s.node, s.ring, us(s.begin_ns),
         std::max(0.001, static_cast<double>(s.end_ns - s.begin_ns) / 1000.0),
         kind_name(s.kind), s.corr, s.index);

  // Everything else: thin slices (corr-carrying, so flows can bind) or
  // instants. Thin-slice duration: up to 1 µs, clipped at the next event on
  // the same track so slices never overlap.
  std::map<TrackKey, std::vector<const Rec*>> by_track;
  for (const Rec& r : evs) by_track[{r.node, r.ring}].push_back(&r);
  struct Anchor {
    uint64_t t;
    uint32_t pid, tid;
  };
  std::unordered_map<uint64_t, std::vector<Anchor>> flow_anchors;
  for (const Span& s : spans)
    flow_anchors[s.corr].push_back({s.begin_ns, s.node, s.ring});
  for (auto& [key, list] : by_track) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Rec* x, const Rec* y) { return x->t < y->t; });
    for (size_t i = 0; i < list.size(); ++i) {
      const Rec& r = *list[i];
      if (r.ev == "op_begin" || r.ev == "op_end") continue;  // covered by spans
      if (r.c == 0) {
        emit("{\"ph\": \"i\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, "
             "\"name\": \"%s\", \"cat\": \"ev\", \"s\": \"t\"}",
             key.pid, key.tid, us(r.t), r.ev.c_str());
        continue;
      }
      uint64_t dur_ns = 1000;
      if (i + 1 < list.size() && list[i + 1]->t > r.t)
        dur_ns = std::min<uint64_t>(dur_ns, list[i + 1]->t - r.t);
      if (dur_ns == 0) dur_ns = 1;
      emit("{\"ph\": \"X\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
           "\"name\": \"%s\", \"cat\": \"ev\", "
           "\"args\": {\"corr\": \"%" PRIx64 "\", \"a\": %u, \"b\": %" PRIu64 "}}",
           key.pid, key.tid, us(r.t), static_cast<double>(dur_ns) / 1000.0,
           r.ev.c_str(), r.c, r.a, r.b);
      flow_anchors[r.c].push_back({r.t, key.pid, key.tid});
    }
  }

  // Flow arrows: one s → t… → f chain per correlation id, in anchor ts order.
  // Each flow event shares its anchor slice's (pid, tid, ts), which is how
  // the Chrome trace format binds an arrow endpoint to a slice.
  size_t flows = 0;
  for (auto& [corr, anchors] : flow_anchors) {
    if (anchors.size() < 2) continue;
    std::stable_sort(anchors.begin(), anchors.end(),
                     [](const Anchor& x, const Anchor& y) { return x.t < y.t; });
    const char* op = "?";
    if (const auto it = span_by_corr.find(corr); it != span_by_corr.end())
      op = kind_name(it->second->kind);
    for (size_t i = 0; i < anchors.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == anchors.size() ? "f" : "t");
      emit("{\"ph\": \"%s\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, "
           "\"name\": \"%s\", \"cat\": \"flow\", \"id\": %" PRIu64 "%s}",
           ph, anchors[i].pid, anchors[i].tid, us(anchors[i].t), op, corr,
           std::strcmp(ph, "f") == 0 ? ", \"bp\": \"e\"" : "");
    }
    ++flows;
  }

  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::fprintf(stderr, "darray-trace: wrote %s (%zu events, %zu spans, %zu flows)\n",
               out_path, evs.size(), spans.size(), flows);
  return 0;
}

// --- request journeys (/slow.json dumps) -------------------------------------
// JourneyCollector::slow_json writes one journey object per line with a fixed
// field order (see src/obs/journey.cpp), so sscanf works here too.

constexpr const char* kStageNames[5] = {"admit", "queue", "backend", "net", "deliver"};

struct Journey {
  uint64_t trace = 0;
  unsigned origin = 0, owner = 0, session = 0, flags = 0;
  uint64_t seq = 0;
  char op[16] = {0};
  char status[24] = {0};
  uint64_t t_submit = 0;
  uint64_t stage[5] = {0, 0, 0, 0, 0};
  uint64_t total = 0;

  int dominant() const {
    int best = -1;
    uint64_t best_ns = 0;
    for (int i = 0; i < 5; ++i)
      if (stage[i] > best_ns) {
        best_ns = stage[i];
        best = i;
      }
    return best;
  }
};

struct JourneyDump {
  uint64_t completed = 0;
  uint64_t retained = 0;
  uint64_t threshold_ns = 0;
  std::vector<Journey> journeys;
};

bool parse_journeys(const char* path, JourneyDump& out) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) {
    std::fprintf(stderr, "darray-trace: cannot open %s\n", path);
    return false;
  }
  char line[1024];
  bool header_done = false;
  while (std::fgets(line, sizeof(line), f)) {
    if (!header_done) {
      if (const char* h = std::strstr(line, "\"journeys\":")) {
        if (const char* c = std::strstr(line, "\"completed\":"))
          std::sscanf(c, "\"completed\": %" SCNu64, &out.completed);
        if (const char* r = std::strstr(line, "\"retained\":"))
          std::sscanf(r, "\"retained\": %" SCNu64, &out.retained);
        if (const char* t = std::strstr(line, "\"threshold_ns\":"))
          std::sscanf(t, "\"threshold_ns\": %" SCNu64, &out.threshold_ns);
        header_done = true;
        (void)h;
        continue;
      }
    }
    const char* p = std::strstr(line, "{\"trace\":");
    if (!p) continue;  // closing line
    Journey j;
    char trace_hex[24] = {0};
    const int n = std::sscanf(
        p,
        "{\"trace\": \"%16[0-9a-fA-F]\", \"origin\": %u, \"owner\": %u, \"session\": %u, "
        "\"seq\": %" SCNu64 ", \"op\": \"%15[^\"]\", \"status\": \"%23[^\"]\", "
        "\"flags\": %u, \"t_submit\": %" SCNu64 ", \"admit_ns\": %" SCNu64
        ", \"queue_ns\": %" SCNu64 ", \"backend_ns\": %" SCNu64 ", \"net_ns\": %" SCNu64
        ", \"deliver_ns\": %" SCNu64 ", \"total_ns\": %" SCNu64,
        trace_hex, &j.origin, &j.owner, &j.session, &j.seq, j.op, j.status, &j.flags,
        &j.t_submit, &j.stage[0], &j.stage[1], &j.stage[2], &j.stage[3], &j.stage[4],
        &j.total);
    if (n != 15) {
      std::fprintf(stderr, "darray-trace: malformed journey line: %s", line);
      std::fclose(f);
      return false;
    }
    j.trace = std::strtoull(trace_hex, nullptr, 16);
    out.journeys.push_back(j);
  }
  std::fclose(f);
  return header_done;
}

std::string journey_flags(unsigned flags) {
  if (flags == 0) return "-";
  std::string s;
  if (flags & 1) s += "shed,";
  if (flags & 2) s += "timeout,";
  if (flags & 4) s += "error,";
  if (flags & 8) s += "hot,";
  s.pop_back();
  return s;
}

int cmd_journeys(const JourneyDump& d) {
  std::printf("retained %zu journeys (%" PRIu64 " total retained, %" PRIu64
              " completed, tail threshold %" PRIu64 " ns)\n\n",
              d.journeys.size(), d.retained, d.completed, d.threshold_ns);
  std::printf("%-16s %-4s %-9s %-12s %3s>%-3s %9s %9s %9s %9s %9s %10s  %s\n", "trace",
              "op", "status", "flags", "org", "own", "admit", "queue", "backend", "net",
              "deliver", "total_ns", "dominant");
  uint64_t dom_count[5] = {0};
  for (const Journey& j : d.journeys) {
    const int dom = j.dominant();
    if (dom >= 0) dom_count[dom]++;
    std::printf("%016" PRIx64 " %-4s %-9s %-12s %3u>%-3u %9" PRIu64 " %9" PRIu64
                " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %10" PRIu64 "  %s\n",
                j.trace, j.op, j.status, journey_flags(j.flags).c_str(), j.origin,
                j.owner, j.stage[0], j.stage[1], j.stage[2], j.stage[3], j.stage[4],
                j.total, dom >= 0 ? kStageNames[dom] : "-");
  }
  std::printf("\ndominant stage:");
  for (int i = 0; i < 5; ++i)
    if (dom_count[i])
      std::printf(" %s=%" PRIu64, kStageNames[i], dom_count[i]);
  std::printf("\n");
  return 0;
}

// Perfetto view of the retained tail: per journey, one parent slice on the
// origin node's session track spanning submit → deliver, with the five stage
// spans nested inside it as child slices (Chrome trace viewers nest complete
// events on one track by time containment). The owner-side interval
// (queue + backend) is mirrored onto the owner node's serve track, and a flow
// chain keyed by the journey's correlation id arrows origin → owner → origin —
// loading this next to a --perfetto dump of the same run lines the journeys up
// with the transport events that share those correlation ids.
int cmd_journeys_perfetto(const JourneyDump& d, const char* out_path) {
  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "darray-trace: cannot open %s for writing\n", out_path);
    return 1;
  }
  uint64_t t0 = ~0ull;
  for (const Journey& j : d.journeys) t0 = std::min(t0, j.t_submit);
  if (d.journeys.empty()) t0 = 0;
  auto us = [t0](uint64_t t) { return static_cast<double>(t - t0) / 1000.0; };

  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto emit = [&](const char* fmt, auto... args) {
    std::fprintf(f, "%s", first ? "" : ",\n");
    first = false;
    std::fprintf(f, fmt, args...);
  };

  // Track metadata. Sessions get their own threads; owner-side work shares
  // one "serve" thread per node (tid 0 — session ids start at 1).
  std::map<TrackKey, bool> tracks;
  for (const Journey& j : d.journeys) {
    tracks[{j.origin, j.session}] = true;
    if (j.stage[1] + j.stage[2] > 0) tracks[{j.owner, 0}] = true;
  }
  std::map<uint32_t, bool> pids;
  for (const auto& [k, _] : tracks) pids[k.pid] = true;
  for (const auto& [pid, _] : pids)
    emit("{\"ph\": \"M\", \"pid\": %u, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"node %u\"}}",
         pid, pid);
  for (const auto& [k, _] : tracks) {
    if (k.tid == 0)
      emit("{\"ph\": \"M\", \"pid\": %u, \"tid\": 0, \"name\": \"thread_name\", "
           "\"args\": {\"name\": \"serve\"}}",
           k.pid);
    else
      emit("{\"ph\": \"M\", \"pid\": %u, \"tid\": %u, \"name\": \"thread_name\", "
           "\"args\": {\"name\": \"session %u\"}}",
           k.pid, k.tid, k.tid);
  }

  size_t flows = 0;
  for (const Journey& j : d.journeys) {
    if (j.total == 0) continue;  // exceptional journey with no deliver stamp
    emit("{\"ph\": \"X\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
         "\"name\": \"%s\", \"cat\": \"journey\", "
         "\"args\": {\"trace\": \"%016" PRIx64 "\", \"seq\": %" PRIu64
         ", \"status\": \"%s\", \"flags\": %u}}",
         j.origin, j.session, us(j.t_submit), static_cast<double>(j.total) / 1000.0,
         j.op, j.trace, j.seq, j.status, j.flags);
    uint64_t cursor = j.t_submit;
    for (int s = 0; s < 5; ++s) {
      if (j.stage[s] == 0) continue;
      emit("{\"ph\": \"X\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
           "\"name\": \"%s\", \"cat\": \"stage\", "
           "\"args\": {\"trace\": \"%016" PRIx64 "\"}}",
           j.origin, j.session, us(cursor), static_cast<double>(j.stage[s]) / 1000.0,
           kStageNames[s], j.trace);
      cursor += j.stage[s];
    }
    const uint64_t owner_ns = j.stage[1] + j.stage[2];
    if (owner_ns == 0) continue;
    const uint64_t owner_t = j.t_submit + j.stage[0];
    emit("{\"ph\": \"X\", \"pid\": %u, \"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
         "\"name\": \"serve %s\", \"cat\": \"journey\", "
         "\"args\": {\"trace\": \"%016" PRIx64 "\"}}",
         j.owner, us(owner_t), static_cast<double>(owner_ns) / 1000.0, j.op, j.trace);
    emit("{\"ph\": \"s\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, "
         "\"name\": \"%s\", \"cat\": \"flow\", \"id\": %" PRIu64 "}",
         j.origin, j.session, us(j.t_submit), j.op, j.trace);
    emit("{\"ph\": \"t\", \"pid\": %u, \"tid\": 0, \"ts\": %.3f, "
         "\"name\": \"%s\", \"cat\": \"flow\", \"id\": %" PRIu64 "}",
         j.owner, us(owner_t), j.op, j.trace);
    emit("{\"ph\": \"f\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, "
         "\"name\": \"%s\", \"cat\": \"flow\", \"id\": %" PRIu64 ", \"bp\": \"e\"}",
         j.origin, j.session, us(j.t_submit + j.total - j.stage[4]), j.op, j.trace);
    ++flows;
  }

  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::fprintf(stderr, "darray-trace: wrote %s (%zu journeys, %zu flows)\n", out_path,
               d.journeys.size(), flows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: darray-trace TRACE.json "
                 "[--slowest N | --corr HEXID | --perfetto OUT.json]\n"
                 "       darray-trace --journeys SLOW.json [--perfetto OUT.json]\n"
                 "       darray-trace --profile PROFILE.prof "
                 "[--top N | --collapsed OUT | --perfetto OUT.json]\n");
    return 1;
  }
  if (std::strcmp(argv[1], "--profile") == 0) {
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: darray-trace --profile PROFILE.prof "
                   "[--top N | --collapsed OUT | --perfetto OUT.json]\n");
      return 1;
    }
    profdump::ProfDump pd;
    if (!profdump::load(argv[2], pd)) return 1;
    if (argc >= 5 && std::strcmp(argv[3], "--collapsed") == 0) {
      if (std::strcmp(argv[4], "-") == 0) {
        profdump::write_collapsed(pd, stdout);
        return 0;
      }
      std::FILE* out = std::fopen(argv[4], "w");
      if (out == nullptr) {
        std::fprintf(stderr, "darray-trace: cannot open %s for writing\n", argv[4]);
        return 1;
      }
      profdump::write_collapsed(pd, out);
      std::fclose(out);
      return 0;
    }
    if (argc >= 5 && std::strcmp(argv[3], "--perfetto") == 0)
      return profdump::write_perfetto(pd, argv[4]) ? 0 : 1;
    size_t topn = 20;
    if (argc >= 5 && std::strcmp(argv[3], "--top") == 0)
      topn = static_cast<size_t>(std::strtoull(argv[4], nullptr, 10));
    profdump::print_report(pd, topn);
    return 0;
  }
  if (std::strcmp(argv[1], "--journeys") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: darray-trace --journeys SLOW.json [--perfetto OUT.json]\n");
      return 1;
    }
    JourneyDump dump;
    if (!parse_journeys(argv[2], dump)) return 1;
    if (argc >= 5 && std::strcmp(argv[3], "--perfetto") == 0)
      return cmd_journeys_perfetto(dump, argv[4]);
    return cmd_journeys(dump);
  }
  std::vector<Rec> evs;
  DumpInfo info;
  if (!parse_dump(argv[1], evs, info)) return 1;
  // Dumps are merged/sorted already, but tolerate hand-edited files.
  std::stable_sort(evs.begin(), evs.end(),
                   [](const Rec& x, const Rec& y) { return x.t < y.t; });

  if (argc >= 4 && std::strcmp(argv[2], "--slowest") == 0)
    return cmd_slowest(evs, std::strtoull(argv[3], nullptr, 10));
  if (argc >= 4 && std::strcmp(argv[2], "--corr") == 0)
    return cmd_corr(evs, std::strtoull(argv[3], nullptr, 16));
  if (argc >= 4 && std::strcmp(argv[2], "--perfetto") == 0)
    return cmd_perfetto(evs, build_spans(evs), argv[3]);
  return cmd_summary(evs, info);
}
