// Shared offline reader for sampling-profiler dumps ("darray_profile v1",
// written by obs::dump_profile), behind `darray-trace --profile`;
// header-only so the format knowledge lives in one place.
//
// The dump is line-oriented:
//   darray_profile v1
//   mode <cpu|wall> hz <n> max_frames <n>
//   totals samples <n> dropped <n> signals <n> unattributed <n> rings <n>
//   phase <i> <name>             (profiler phase table)
//   op <i> <name>                (OpKind table)
//   thread <i> tid <t> alive <0|1> name <name>
//   map <raw /proc/self/maps line>
//   sym 0x<pc> <symbol, may contain spaces>
//   stack t<i> p<phase> o<op> n<count> 0x<pc> ...   (leaf first)
//
// Symbols come from the embedded dladdr table (computed inside the dumping
// process — PCs are meaningless across address spaces); PCs the table misses
// fall back to "module+0xoff" via the maps copy, then to bare hex.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace profdump {

struct ThreadInfo {
  uint64_t tid = 0;
  bool alive = false;
  std::string name;
};

struct MapRange {
  uintptr_t lo = 0;
  uintptr_t hi = 0;
  std::string path;
};

struct StackCell {
  uint32_t thread = 0;  // index into ProfDump::threads
  uint32_t phase = 0;
  uint32_t op = 0;  // 0xff = none
  uint64_t count = 0;
  std::vector<uintptr_t> pcs;  // leaf first
};

struct ProfDump {
  std::string mode;
  uint32_t hz = 0;
  uint32_t max_frames = 0;
  uint64_t samples = 0, dropped = 0, signals = 0, unattributed = 0, rings = 0;
  std::vector<std::string> phases;
  std::vector<std::string> ops;
  std::vector<ThreadInfo> threads;
  std::vector<MapRange> maps;
  std::map<uintptr_t, std::string> syms;
  std::vector<StackCell> stacks;
};

inline bool load(const char* path, ProfDump& d) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "prof: cannot open %s\n", path);
    return false;
  }
  char line[4096];
  if (std::fgets(line, sizeof(line), f) == nullptr ||
      std::strncmp(line, "darray_profile v1", 17) != 0) {
    std::fprintf(stderr, "prof: %s is not a darray_profile v1 dump\n", path);
    std::fclose(f);
    return false;
  }
  auto chomp = [](char* s) {
    size_t n = std::strlen(s);
    while (n > 0 && (s[n - 1] == '\n' || s[n - 1] == '\r')) s[--n] = '\0';
  };
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    chomp(line);
    char word[64];
    unsigned long long a = 0, b = 0, c = 0, e = 0, g = 0;
    if (std::sscanf(line, "mode %63s hz %llu max_frames %llu", word, &a, &b) == 3) {
      d.mode = word;
      d.hz = static_cast<uint32_t>(a);
      d.max_frames = static_cast<uint32_t>(b);
    } else if (std::sscanf(line,
                           "totals samples %llu dropped %llu signals %llu "
                           "unattributed %llu rings %llu",
                           &a, &b, &c, &e, &g) == 5) {
      d.samples = a;
      d.dropped = b;
      d.signals = c;
      d.unattributed = e;
      d.rings = g;
    } else if (std::sscanf(line, "phase %llu %63s", &a, word) == 2) {
      if (d.phases.size() <= a) d.phases.resize(a + 1);
      d.phases[a] = word;
    } else if (std::sscanf(line, "op %llu %63s", &a, word) == 2) {
      if (d.ops.size() <= a) d.ops.resize(a + 1);
      d.ops[a] = word;
    } else if (std::strncmp(line, "thread ", 7) == 0) {
      int alive = 0;
      int name_off = -1;
      if (std::sscanf(line, "thread %llu tid %llu alive %d name %n", &a, &b, &alive,
                      &name_off) >= 3 &&
          name_off > 0) {
        if (d.threads.size() <= a) d.threads.resize(a + 1);
        d.threads[a].tid = b;
        d.threads[a].alive = alive != 0;
        d.threads[a].name = line + name_off;
      }
    } else if (std::strncmp(line, "map ", 4) == 0) {
      // "<lo>-<hi> <perms> <off> <dev> <ino> [path]" — executable ranges only.
      unsigned long long lo = 0, hi = 0;
      char perms[8] = {};
      int path_off = -1;
      if (std::sscanf(line + 4, "%llx-%llx %7s %*s %*s %*s %n", &lo, &hi, perms,
                      &path_off) >= 3 &&
          std::strchr(perms, 'x') != nullptr) {
        MapRange m;
        m.lo = static_cast<uintptr_t>(lo);
        m.hi = static_cast<uintptr_t>(hi);
        if (path_off > 0) m.path = line + 4 + path_off;
        d.maps.push_back(std::move(m));
      }
    } else if (std::strncmp(line, "sym ", 4) == 0) {
      unsigned long long pc = 0;
      int off = -1;
      if (std::sscanf(line + 4, "%llx %n", &pc, &off) >= 1 && off > 0)
        d.syms[static_cast<uintptr_t>(pc)] = line + 4 + off;
    } else if (std::strncmp(line, "stack ", 6) == 0) {
      StackCell cell;
      int off = -1;
      if (std::sscanf(line + 6, "t%llu p%llu o%llu n%llu%n", &a, &b, &c, &e, &off) != 4)
        continue;
      cell.thread = static_cast<uint32_t>(a);
      cell.phase = static_cast<uint32_t>(b);
      cell.op = static_cast<uint32_t>(c);
      cell.count = e;
      const char* p = line + 6 + off;
      while (*p != '\0') {
        unsigned long long pc = 0;
        int n = 0;
        if (std::sscanf(p, " 0x%llx%n", &pc, &n) != 1) break;
        cell.pcs.push_back(static_cast<uintptr_t>(pc));
        p += n;
      }
      d.stacks.push_back(std::move(cell));
    }
  }
  std::fclose(f);
  return true;
}

inline std::string basename_of(const std::string& p) {
  const size_t slash = p.find_last_of('/');
  return slash == std::string::npos ? p : p.substr(slash + 1);
}

// Embedded dladdr table first, then module+offset from the maps copy, then
// bare hex — mirrors the in-process fallback order.
inline std::string sym_for(const ProfDump& d, uintptr_t pc) {
  if (const auto it = d.syms.find(pc); it != d.syms.end()) return it->second;
  for (const MapRange& m : d.maps) {
    if (pc >= m.lo && pc < m.hi) {
      char buf[320];
      std::snprintf(buf, sizeof buf, "%s+0x%" PRIxPTR,
                    m.path.empty() ? "[anon]" : basename_of(m.path).c_str(), pc - m.lo);
      return buf;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%" PRIxPTR, pc);
  return buf;
}

inline std::string thread_name(const ProfDump& d, uint32_t idx) {
  if (idx < d.threads.size() && !d.threads[idx].name.empty()) return d.threads[idx].name;
  return "t" + std::to_string(idx);
}

inline std::string phase_label(const ProfDump& d, const StackCell& c) {
  std::string p = c.phase < d.phases.size() ? d.phases[c.phase] : "?";
  if (c.op != 0xff && c.op < d.ops.size()) p += ":" + d.ops[c.op];
  return "(" + p + ")";
}

// Flamegraph collapse rules (match obs::profiler_collapsed): no spaces, no
// semicolons inside a frame.
inline std::string sanitize(std::string s) {
  for (char& ch : s) {
    if (ch == ';') ch = ':';
    if (ch == ' ') ch = '\0';
  }
  std::string out;
  out.reserve(s.size());
  for (char ch : s)
    if (ch != '\0') out += ch;
  return out;
}

// One folded line per cell: thread;(phase[:op]);root;...;leaf count
inline void write_collapsed(const ProfDump& d, std::FILE* out) {
  // Per-PC symbol cache: symbolization walks the maps table otherwise.
  std::map<uintptr_t, std::string> cache;
  for (const StackCell& c : d.stacks) {
    std::string lbl = sanitize(thread_name(d, c.thread)) + ";" + phase_label(d, c);
    for (size_t i = c.pcs.size(); i-- > 0;) {  // dump is leaf-first; emit root-first
      auto it = cache.find(c.pcs[i]);
      if (it == cache.end()) it = cache.emplace(c.pcs[i], sanitize(sym_for(d, c.pcs[i]))).first;
      lbl += ";" + it->second;
    }
    std::fprintf(out, "%s %" PRIu64 "\n", lbl.c_str(), c.count);
  }
}

// Top-N table: self = samples with the symbol as leaf, total = samples with
// the symbol anywhere in the stack (counted once per stack).
inline void print_report(const ProfDump& d, size_t topn) {
  std::printf("darray_profile: mode=%s hz=%u max_frames=%u\n", d.mode.c_str(), d.hz,
              d.max_frames);
  std::printf("totals: samples=%" PRIu64 " dropped=%" PRIu64 " signals=%" PRIu64
              " unattributed=%" PRIu64 " rings=%" PRIu64 "\n\n",
              d.samples, d.dropped, d.signals, d.unattributed, d.rings);

  std::map<std::string, uint64_t> per_thread;
  uint64_t total = 0;
  for (const StackCell& c : d.stacks) {
    per_thread[thread_name(d, c.thread)] += c.count;
    total += c.count;
  }
  std::printf("%-18s %10s %7s\n", "thread", "samples", "%");
  for (const auto& [name, n] : per_thread)
    std::printf("%-18s %10" PRIu64 " %6.1f%%\n", name.c_str(), n,
                total != 0 ? 100.0 * static_cast<double>(n) / static_cast<double>(total)
                           : 0.0);
  std::printf("\n");

  std::map<std::string, std::pair<uint64_t, uint64_t>> cells;  // sym -> {self,total}
  std::map<uintptr_t, std::string> cache;
  auto sym_cached = [&](uintptr_t pc) -> const std::string& {
    auto it = cache.find(pc);
    if (it == cache.end()) it = cache.emplace(pc, sym_for(d, pc)).first;
    return it->second;
  };
  for (const StackCell& c : d.stacks) {
    std::map<std::string, bool> seen_leaf;  // sym -> counted as leaf here
    for (size_t i = 0; i < c.pcs.size(); ++i) {
      const std::string& s = sym_cached(c.pcs[i]);
      auto [it, fresh] = seen_leaf.emplace(s, i == 0);
      if (!fresh) continue;  // recursive frame: total counted once per stack
      auto& cell = cells[s];
      if (i == 0) cell.first += c.count;
      cell.second += c.count;
    }
  }
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> rows(cells.begin(),
                                                                          cells.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    if (x.second.first != y.second.first) return x.second.first > y.second.first;
    return x.second.second > y.second.second;
  });
  std::printf("%10s %7s %10s %7s  %s\n", "self", "self%", "total", "total%", "symbol");
  for (size_t i = 0; i < rows.size() && i < topn; ++i) {
    const auto& [sym, st] = rows[i];
    const double den = total != 0 ? static_cast<double>(total) : 1.0;
    std::printf("%10" PRIu64 " %6.1f%% %10" PRIu64 " %6.1f%%  %s\n", st.first,
                100.0 * static_cast<double>(st.first) / den, st.second,
                100.0 * static_cast<double>(st.second) / den, sym.c_str());
  }
}

// Chrome trace-event JSON with the sampling extension: a stackFrames tree and
// one entry in "samples" per recorded backtrace. Aggregated cells carry no
// per-sample timestamps, so samples are respread at the profiling period —
// the flame view (which sums weights) is exact, the timeline is synthetic.
inline bool write_perfetto(const ProfDump& d, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "prof: cannot open %s for writing\n", path);
    return false;
  }
  // Build the frame tree: node key = (parent, symbol).
  std::map<std::pair<uint64_t, std::string>, uint64_t> frame_ids;
  std::vector<std::pair<uint64_t, std::string>> frames;  // id-1 -> {parent, name}
  auto intern = [&](uint64_t parent, const std::string& name) -> uint64_t {
    const auto key = std::make_pair(parent, name);
    const auto it = frame_ids.find(key);
    if (it != frame_ids.end()) return it->second;
    const uint64_t id = frames.size() + 1;
    frame_ids.emplace(key, id);
    frames.push_back(key);
    return id;
  };
  std::map<uintptr_t, std::string> cache;
  struct SampleRow {
    uint32_t tid;
    uint64_t sf;
    uint64_t count;
    std::string phase;
  };
  std::vector<SampleRow> rows;
  for (const StackCell& c : d.stacks) {
    uint64_t sf = intern(0, phase_label(d, c));
    for (size_t i = c.pcs.size(); i-- > 0;) {
      auto it = cache.find(c.pcs[i]);
      if (it == cache.end()) it = cache.emplace(c.pcs[i], sym_for(d, c.pcs[i])).first;
      sf = intern(sf, it->second);
    }
    rows.push_back({c.thread, sf, c.count, phase_label(d, c)});
  }
  auto json_escape = [](const std::string& s) {
    std::string out;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      if (static_cast<unsigned char>(ch) < 0x20) continue;
      out += ch;
    }
    return out;
  };
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < d.threads.size(); ++i) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                 i == 0 ? "" : ",\n", i + 1, json_escape(thread_name(d, i)).c_str());
  }
  std::fprintf(f, "\n],\n\"stackFrames\": {\n");
  for (size_t i = 0; i < frames.size(); ++i) {
    std::fprintf(f, "%s\"%zu\": {\"name\": \"%s\"", i == 0 ? "" : ",\n", i + 1,
                 json_escape(frames[i].second).c_str());
    if (frames[i].first != 0)
      std::fprintf(f, ", \"parent\": \"%" PRIu64 "\"", frames[i].first);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n},\n\"samples\": [\n");
  // Synthetic per-thread clocks at the sampling period.
  const double period_us = d.hz != 0 ? 1e6 / d.hz : 1e4;
  std::map<uint32_t, double> clock;
  bool first = true;
  uint64_t next_id = 1;
  for (const SampleRow& r : rows) {
    for (uint64_t k = 0; k < r.count; ++k) {
      double& t = clock[r.tid];
      std::fprintf(f,
                   "%s{\"cpu\": 0, \"tid\": %u, \"ts\": %.1f, \"name\": \"sample\", "
                   "\"sf\": \"%" PRIu64 "\", \"weight\": 1, \"id\": %" PRIu64 "}",
                   first ? "" : ",\n", r.tid + 1, t, r.sf, next_id++);
      t += period_us;
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

}  // namespace profdump
