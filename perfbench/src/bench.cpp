#include "bench.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/system.hpp"

namespace perfbench {

double now_s() {
  // lint:allow(wallclock): host time is what the benchmark measures; no simulated state reads it
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double reference_s() {
  // Two halves a simulator's step loop leans on: a wide integer loop (eight
  // independent chains: issue width, shared with a busy sibling thread) and
  // two sorts of pseudo-random keys (branch misses, cache traffic). The keys
  // take 1 MiB, which peak_rss_mb includes.
  static volatile std::uint64_t sink = 0;
  const double t0 = now_s();
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) {
    a = a * 3 + i;
    b = b * 5 + i;
    c = c * 7 + i;
    d = d * 9 + i;
    e = (e ^ i) + a;
    f = (f ^ i) + b;
    g = (g << 1) ^ c;
    h = (h >> 1) ^ d;
  }
  std::vector<std::uint32_t> keys(1u << 18);
  std::uint32_t x = 2463534242u;
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      k = x;
    }
    std::sort(keys.begin(), keys.end());
    a += keys[keys.size() / 2];
  }
  sink = sink + (a ^ b ^ c ^ d ^ e ^ f ^ g ^ h);
  return now_s() - t0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double reference_seconds(double wall_s, const std::vector<double>& refs) {
  return wall_s * kReferenceS / mean(refs);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                                static_cast<double>(v.size()));
  const std::size_t k = std::max<std::size_t>(1, static_cast<std::size_t>(rank));
  return v[k - 1];
}

double peak_rss_mb() {
  struct rusage self{};
  struct rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;  // ru_maxrss is KiB on Linux
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

std::string Outcome::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics.items()) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const std::string& name, const std::string& id) {
  if (!on_) return -1;
  spans_.push_back({name, id, now_s(), 0.0, current()});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[index].end = now_s();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void Tracer::add(Span span, int parent_offset) {
  span.parent = span.parent < 0 ? current() : span.parent + parent_offset;
  spans_.push_back(std::move(span));
}

std::map<std::string, std::pair<double, std::uint64_t>> Tracer::self_times()
    const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& [self, count] = out[spans_[i].name];
    self += spans_[i].end - spans_[i].start - child_time[i];
    ++count;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"i\": %zu, \"name\": \"%s\", \"id\": \"%s\", "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}%s\n",
                  i, s.name.c_str(), s.id.c_str(), s.start - t0, s.end - t0,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "],\n\"self_s\": {";
  bool first = true;
  for (const auto& [name, st] : self_times()) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"self_s\": %.9f, \"n\": %llu}",
                  first ? "" : ", ", name.c_str(), st.first,
                  static_cast<unsigned long long>(st.second));
    os << buf;
    first = false;
  }
  os << "}}\n";
}

double Timed::stop() {
  if (dt_ < 0.0) {
    dt_ = now_s() - t0_;
    tracer().close(index_);
  }
  return dt_;
}

// ---------------------------------------------------------------------------

FastPath capture_fastpath(const std::string& workdir,
                          const std::function<void()>& fn) {
  const std::string path =
      workdir + "/stderr." + std::to_string(::getpid()) + ".txt";
  std::fflush(stderr);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const int saved = ::dup(2);
  ::dup2(fd, 2);
  const auto restore = [&] {
    std::fflush(stderr);
    ::dup2(saved, 2);
    ::close(saved);
    ::close(fd);
  };
  try {
    fn();
  } catch (...) {
    restore();
    ::unlink(path.c_str());
    throw;
  }
  restore();

  FastPath fp;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long cyc = 0, stepped = 0, skipped = 0;
    if (std::sscanf(line.c_str(),
                    "[fastpath] cycles=%llu stepped=%llu skipped=%llu", &cyc,
                    &stepped, &skipped) == 3) {
      fp.stepped += stepped;
      fp.skipped += skipped;
    } else {
      std::cerr << line << "\n";
    }
  }
  ::unlink(path.c_str());
  return fp;
}

Introspect introspect(const llamcat::System& sys) {
  Introspect in;
  for (const auto& core : sys.cores()) {
    in.core_instructions.push_back(
        static_cast<double>(core->instructions_issued()));
  }
  for (const auto& slice : sys.slices()) {
    in.slice_mshr_util.push_back(slice->mshr().avg_entry_utilization());
  }
  in.tb_stolen = static_cast<double>(sys.scheduler().stolen());
  return in;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// max/mean of a per-component series (1 = perfectly balanced; 0 when the
// series is not observable).
double imbalance(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0, mx = 0.0;
  for (double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return ratio(mx, sum / static_cast<double>(v.size()));
}

}  // namespace

void add_machine_layers(Metrics& m, const std::string& suffix,
                        const MachineRun& run, const SimConfig& cfg) {
  const SimStats& s = run.stats;
  const auto c = [&](const char* name) {
    return static_cast<double>(s.counters.get(name));
  };
  const auto add = [&](const std::string& name, double v, const char* unit) {
    m.add(name + "." + suffix, v, unit);
  };
  const double cycles = static_cast<double>(s.cycles);
  const double cores = cfg.core.num_cores;
  const double slices = cfg.llc.num_slices;
  const double llc_requests = c("llc.requests_in");

  add("sim.run_s", run.run_s, "s");
  add("sim.build_s", run.build_s, "s");
  add("sim.mcycles_per_s", ratio(cycles, run.run_s) / 1e6, "Mcycles/s");
  add("sim.ns_per_core_cycle", ratio(run.run_s * 1e9, cycles * cores), "ns");
  add("sim.ns_per_llc_request", ratio(run.run_s * 1e9, llc_requests), "ns");
  const double fp_total =
      static_cast<double>(run.fastpath.stepped + run.fastpath.skipped);
  add("sim.stepped_share", ratio(run.fastpath.stepped, fp_total), "ratio");
  add("sim.stepped_cycles", static_cast<double>(run.fastpath.stepped),
      "cycles");
  add("sim.skipped_cycles", static_cast<double>(run.fastpath.skipped),
      "cycles");

  add("vcore.ipc", s.ipc, "inst/cycle");
  add("vcore.mem_wait_share", ratio(c("core.c_mem_total"), cycles * cores),
      "ratio");
  add("vcore.idle_share", ratio(c("core.c_idle_total"), cycles * cores),
      "ratio");
  add("vcore.issue_imbalance", imbalance(run.intro.core_instructions), "x");
  add("vcore.tb_stolen", run.intro.tb_stolen, "count");

  const double l1_loads =
      c("l1.load_hits") + c("l1.load_merges") + c("l1.load_misses");
  add("cache.l1_hit_rate", ratio(c("l1.load_hits"), l1_loads), "ratio");
  add("cache.l1_merge_share", ratio(c("l1.load_merges"), l1_loads), "ratio");
  add("cache.l1_load_blocked", c("l1.load_blocked"), "count");

  const double slice_cycles = cycles * slices;
  add("llc.hit_rate", s.l2_hit_rate, "ratio");
  add("llc.mshr_hit_rate", s.mshr_hit_rate, "ratio");
  add("llc.mshr_entry_util", s.mshr_entry_util, "ratio");
  add("llc.mshr_util_imbalance", imbalance(run.intro.slice_mshr_util), "x");
  add("llc.stall_share", ratio(c("llc.stall_cycles"), slice_cycles), "ratio");
  add("llc.stall_entry_share", ratio(c("llc.stall_entry"), slice_cycles),
      "ratio");
  add("llc.stall_target_share", ratio(c("llc.stall_target"), slice_cycles),
      "ratio");
  add("llc.stall_dram_share", ratio(c("llc.stall_dram"), slice_cycles),
      "ratio");
  add("llc.lookup_backpressure", c("llc.lookup_backpressure"), "count");
  add("llc.requests", llc_requests, "count");

  add("dram.bw_gbps", s.dram_bw_gbps, "GB/s");
  add("dram.row_hit_rate",
      ratio(c("dram.row_hits"), c("dram.row_hits") + c("dram.row_misses")),
      "ratio");
  add("dram.reads", c("dram.reads"), "count");
}

const std::vector<Stack>& stacks() {
  static const std::vector<Stack> s = {
      {"unopt", llamcat::ThrottlePolicy::kNone, llamcat::ArbPolicy::kFcfs},
      {"dyncta", llamcat::ThrottlePolicy::kDyncta, llamcat::ArbPolicy::kFcfs},
      {"llamcat", llamcat::ThrottlePolicy::kDynMg, llamcat::ArbPolicy::kBma},
  };
  return s;
}

void print_samples(const std::string& what, const std::vector<double>& v) {
  std::ostringstream os;
  os << what << ": n=" << v.size() << " [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? " " : "") << v[i];
  }
  os << "] median=" << median(v);
  std::cout << os.str() << "\n";
}

}  // namespace perfbench
