// serve_openloop: an open loop of independent users on the 4-core / 1 MiB /
// 2-slice / 2-channel contention machine of bench/ablation_saturation, with
// the full serving stack (budgeted SRF admission, preemption, cold-block
// paging, kv_share) and a small-KV-head model.
//
// One seeded Poisson trace (lognormal lengths, 1-4 decode steps, Zipf
// prefix groups) is replayed at a ladder of fixed offered rates whose top
// rung lies past the knee. Its
// arrivals are rescaled per rate so that the offered rate is exact: the
// generator draws n+1 arrivals and the first n are scaled so the (n+1)-th
// lands at (n+1) * gap - a Poisson process conditioned on its count, which
// removes the count noise from every rate. The trace is served in windows
// of consecutive requests, each an independent engine run started empty.
//
// Every engine run happens in a child process (this binary re-executed
// with --serve-child): under paged preemption the engine reads past a
// request's operator chain and can crash (the disclosed defect, see
// README.md). A crashed window counts all its requests as failed; the
// parent process survives and reports it. Only a crash by the signals of
// an out-of-bounds read is attributed to the defect. Children run one at a
// time.
#include <sys/personality.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "check.hpp"
#include "serve.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/traffic.hpp"

namespace perfbench {

using namespace llamcat;
using scenario::BatchStats;
using scenario::DecodePass;
using scenario::DecodePassConfig;
using scenario::RequestBatch;
using scenario::RequestSpec;

SimConfig serve_machine(const Stack& stack) {
  SimConfig cfg = with_policies(SimConfig::table5(), stack.thr, stack.arb);
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  return cfg;
}

ModelShape serve_model() {
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  return m;
}

DecodePassConfig serve_pass_config(const RequestBatch& batch, bool audit) {
  DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = ExecutionMode::kContinuous;
  pc.serving.policy = AdmitPolicy::kShortestRemaining;
  pc.serving.kv_budget_bytes = batch.total_peak_kv_bytes(1) / 3;
  pc.serving.preempt = true;
  pc.serving.kv_evict = KvEvictPolicy::kColdBlocks;
  pc.serving.kv_block_bytes = 256;
  pc.serving.kv_share = true;
  pc.audit = audit;
  return pc;
}

namespace {

/// The workload's fixed shape (tiny = the benchmark's own tests).
struct Shape {
  std::uint32_t windows;
  std::uint32_t per_window;
  std::uint64_t seq_min;
  std::uint64_t seq_max;
  /// Mean inter-arrival gaps of the rate ladder, descending (rising load).
  /// The top rung lies past the knee: fewer than kTargetShare of its
  /// requests meet both limits.
  std::vector<Cycle> gaps;
  /// Index of the reporting rate in `gaps`: the latency, goodput and
  /// per-stack figures are read there. It is the lowest rate: nearer the
  /// knee, 240 requests leave the TTFT tail too seed-dependent to gate on.
  std::size_t report;
  /// The TTFT limit sits just above the unloaded TTFT p90 (25,849 cycles
  /// at the reporting rate), so the share meeting it falls as soon as
  /// requests queue.
  Cycle ttft_limit;
  Cycle tbt_limit;
};

constexpr double kTargetShare = 0.7;
constexpr std::size_t kSetupRepeats = 3;

Shape shape(bool tiny) {
  if (tiny) return {2, 8, 32, 64, {60'000, 30'000, 15'000}, 0, 30'000, 40'000};
  return {10, 24, 32, 128, {90'000, 40'000, 30'000, 20'000}, 0, 30'000, 40'000};
}

/// The whole trace (windows * per_window requests) at `gap`.
std::vector<RequestSpec> trace_at(const Shape& sh, std::uint64_t seed,
                                  Cycle gap) {
  const std::uint32_t n = sh.windows * sh.per_window;
  scenario::TrafficConfig t;
  t.num_requests = n + 1;
  t.seed = seed;
  t.process = TrafficProcess::kPoisson;
  t.mean_gap = 1'000'000;
  t.seq_dist = TrafficDist::kLognormal;
  t.seq_min = sh.seq_min;
  t.seq_max = sh.seq_max;
  t.seq_sigma = 0.5;
  t.steps_min = 1;
  t.steps_max = 4;
  t.prefix_groups = 8;
  t.zipf_s = 1.0;
  t.share_pct = 50;
  std::vector<RequestSpec> reqs = scenario::generate_traffic(t);
  const double last = static_cast<double>(reqs.back().arrival_cycle);
  reqs.pop_back();
  const double span = static_cast<double>(gap) * (n + 1);
  for (RequestSpec& r : reqs) {
    r.arrival_cycle = static_cast<Cycle>(
        static_cast<double>(r.arrival_cycle) * span / last);
  }
  return reqs;
}

/// Window `w` of the trace, ids renumbered from 0 and arrivals re-based to
/// the window's first arrival.
std::vector<RequestSpec> window_of(const Shape& sh,
                                   const std::vector<RequestSpec>& trace,
                                   std::uint32_t w) {
  std::vector<RequestSpec> out(trace.begin() + w * sh.per_window,
                               trace.begin() + (w + 1) * sh.per_window);
  const Cycle t0 = out.front().arrival_cycle;
  for (std::uint32_t i = 0; i < out.size(); ++i) {
    out[i].id = i;
    out[i].arrival_cycle -= t0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// One engine run, as the child reports it and the parent reads it back.
// ---------------------------------------------------------------------------

struct Req {
  std::uint32_t id = 0;
  bool failed = false;
  Cycle ttft = 0;     // first token out: step_finish_cycles[0] - arrival
  Cycle latency = 0;  // finish - arrival
  std::uint32_t steps = 0;
  std::vector<Cycle> gaps;  // inter-token times
};

struct WindowRun {
  /// The child ended without a report (signal, exit status, truncation).
  bool crashed = false;
  /// ... by a signal the defect's stray read can raise.
  bool crash_is_defect = false;
  std::string crash;  // how the child ended when it crashed
  /// The engine threw; every request of the window failed.
  bool threw = false;
  double gen_s = 0.0, setup_s = 0.0, map_s = 0.0, run_s = 0.0, audit_s = 0.0;
  std::string digest;
  Cycle makespan = 0;
  FastPath fastpath;
  SimStats stats;
  std::map<std::string, double> scen;
  std::vector<Req> reqs;
  std::vector<std::string> disclosed, unexpected;
  std::vector<Span> spans;
};

void emit_child(std::ostream& os, const WindowRun& r) {
  os << std::setprecision(17);
  os << "times " << r.gen_s << ' ' << r.setup_s << ' ' << r.map_s << ' '
     << r.run_s << ' ' << r.audit_s << '\n';
  os << "digest " << r.digest << '\n';
  os << "threw " << r.threw << '\n';
  os << "makespan " << r.makespan << '\n';
  os << "fastpath " << r.fastpath.stepped << ' ' << r.fastpath.skipped << '\n';
  const SimStats& s = r.stats;
  os << "sim " << s.cycles << ' ' << s.core_hz << ' ' << s.mshr_entry_util
     << ' ' << s.t_cs << ' ' << s.instructions << ' ' << s.thread_blocks << ' '
     << s.dram_reads << ' ' << s.dram_writes << ' ' << s.ipc << ' '
     << s.l2_hit_rate << ' ' << s.mshr_hit_rate << ' ' << s.dram_bw_gbps
     << '\n';
  for (const auto& [name, v] : s.counters.counters()) {
    os << "counter " << name << ' ' << v << '\n';
  }
  for (const auto& [name, v] : r.scen) os << "scen " << name << ' ' << v << '\n';
  for (const Req& q : r.reqs) {
    os << "req " << q.id << ' ' << q.failed << ' ' << q.ttft << ' '
       << q.latency << ' ' << q.steps << ' ' << q.gaps.size();
    for (Cycle g : q.gaps) os << ' ' << g;
    os << '\n';
  }
  for (const std::string& v : r.disclosed) os << "disclosed " << v << '\n';
  for (const std::string& v : r.unexpected) os << "unexpected " << v << '\n';
  for (const Span& sp : r.spans) {
    os << "span " << sp.name << ' ' << sp.id << ' ' << sp.start << ' '
       << sp.end << ' ' << sp.parent << '\n';
  }
  os << "end\n";
}

WindowRun parse_child(const std::string& text) {
  WindowRun r;
  std::istringstream in(text);
  std::string line;
  bool ended = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "times") {
      ls >> r.gen_s >> r.setup_s >> r.map_s >> r.run_s >> r.audit_s;
    } else if (key == "digest") {
      ls >> r.digest;
    } else if (key == "threw") {
      ls >> r.threw;
    } else if (key == "makespan") {
      ls >> r.makespan;
    } else if (key == "fastpath") {
      ls >> r.fastpath.stepped >> r.fastpath.skipped;
    } else if (key == "sim") {
      SimStats& s = r.stats;
      ls >> s.cycles >> s.core_hz >> s.mshr_entry_util >> s.t_cs >>
          s.instructions >> s.thread_blocks >> s.dram_reads >> s.dram_writes >>
          s.ipc >> s.l2_hit_rate >> s.mshr_hit_rate >> s.dram_bw_gbps;
    } else if (key == "counter") {
      std::string name;
      std::uint64_t v = 0;
      ls >> name >> v;
      r.stats.counters.set(name, v);
    } else if (key == "scen") {
      std::string name;
      double v = 0.0;
      ls >> name >> v;
      r.scen[name] = v;
    } else if (key == "req") {
      Req q;
      std::size_t n_gaps = 0;
      ls >> q.id >> q.failed >> q.ttft >> q.latency >> q.steps >> n_gaps;
      q.gaps.resize(n_gaps);
      for (Cycle& g : q.gaps) ls >> g;
      r.reqs.push_back(std::move(q));
    } else if (key == "disclosed" || key == "unexpected") {
      std::string rest;
      std::getline(ls >> std::ws, rest);
      (key == "disclosed" ? r.disclosed : r.unexpected).push_back(rest);
    } else if (key == "span") {
      Span sp;
      ls >> sp.name >> sp.id >> sp.start >> sp.end >> sp.parent;
      r.spans.push_back(std::move(sp));
    } else if (key == "end") {
      ended = true;
    }
  }
  if (!ended) {
    r.crashed = true;
    r.crash = "child output truncated";
  }
  return r;
}

/// Re-executes this binary as a child and returns its parsed report. A
/// child killed by a signal (or exiting non-zero) yields crashed = true;
/// crash_is_defect only for the signals of an out-of-bounds read.
WindowRun spawn_child(const std::string& self_exe,
                      const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    // A fixed address layout keeps the engine's out-of-bounds read (see
    // the header comment) reading the same bytes in every run.
    const int persona = ::personality(0xffffffff);
    if (persona != -1) ::personality(persona | ADDR_NO_RANDOMIZE);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(self_exe.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(self_exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) text.append(buf, n);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  WindowRun r = parse_child(text);
  if (WIFSIGNALED(status)) {
    r = WindowRun{};
    r.crashed = true;
    r.crash_is_defect = is_defect_signal(WTERMSIG(status));
    r.crash = std::string("engine crashed (signal ") +
              std::to_string(WTERMSIG(status)) + ", " +
              strsignal(WTERMSIG(status)) + ")";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r = WindowRun{};
    r.crashed = true;
    r.crash = "child exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Parent-side aggregation.
// ---------------------------------------------------------------------------

struct RatePoint {
  double qps = 0.0;
  std::vector<double> ttft, tbt;
  std::uint64_t attempted = 0, failed = 0, met = 0, good_tokens = 0;
  std::uint32_t crashed_windows = 0;
  Cycle makespan = 0;
  bool growing = false;
  [[nodiscard]] double share() const {
    return attempted ? static_cast<double>(met) / attempted : 0.0;
  }
};

RatePoint summarize(const Shape& sh, const std::vector<WindowRun>& windows,
                    double qps) {
  RatePoint p;
  p.qps = qps;
  std::vector<double> early, late;
  for (const WindowRun& w : windows) {
    p.attempted += sh.per_window;
    if (w.crashed) {
      p.failed += sh.per_window;
      ++p.crashed_windows;
      continue;
    }
    p.makespan += w.makespan;
    for (const Req& q : w.reqs) {
      if (q.failed) {
        ++p.failed;
        continue;
      }
      p.ttft.push_back(static_cast<double>(q.ttft));
      (q.id < sh.per_window / 2 ? early : late)
          .push_back(static_cast<double>(q.ttft));
      Cycle worst = 0;
      for (Cycle g : q.gaps) {
        p.tbt.push_back(static_cast<double>(g));
        worst = std::max(worst, g);
      }
      if (q.ttft <= sh.ttft_limit && worst <= sh.tbt_limit) {
        ++p.met;
        p.good_tokens += q.steps;
      }
    }
  }
  // A backlog that grows across a window shows as later arrivals waiting
  // much longer for their first token than earlier ones - past the limit.
  p.growing = !late.empty() && median(late) > 2.0 * median(early) &&
              median(late) > static_cast<double>(sh.ttft_limit);
  return p;
}

/// Highest offered rate at which kTargetShare of the requests sent meet
/// both limits without a growing backlog. It takes the highest rung of the
/// ladder (ascending `pts`) that qualifies and interpolates the share
/// linearly to the rung above it, which lies past the target. Reports the
/// top rung when every rung qualifies, and the lowest rate scaled by its
/// share over the target when none does (never 0).
double max_sustainable(const std::vector<RatePoint>& pts) {
  std::size_t i = pts.size();
  while (i > 0 && (pts[i - 1].growing || pts[i - 1].share() < kTargetShare)) {
    --i;
  }
  if (i == 0) return pts.front().qps * pts.front().share() / kTargetShare;
  const RatePoint& lo = pts[i - 1];
  if (i == pts.size()) return lo.qps;
  const RatePoint& hi = pts[i];
  // A rung rejected only for its growing backlog gives no share to cross.
  if (hi.share() >= kTargetShare) return lo.qps;
  return lo.qps + (lo.share() - kTargetShare) / (lo.share() - hi.share()) *
                      (hi.qps - lo.qps);
}

}  // namespace

// ---------------------------------------------------------------------------
// Child: one window at one rate under one stack.
// ---------------------------------------------------------------------------

int serve_child_main(int argc, char** argv) {
  // argv: --serve-child <seed> <rate> <window> <stack> <traced> <tiny> <workdir>
  if (argc != 9) {
    std::cerr << "perfbench: bad --serve-child invocation\n";
    return 2;
  }
  const std::uint64_t seed = std::stoull(argv[2]);
  const std::size_t rate = std::stoul(argv[3]);
  const std::uint32_t win = static_cast<std::uint32_t>(std::stoul(argv[4]));
  const Stack& stack = stacks().at(std::stoul(argv[5]));
  const bool traced = std::string(argv[6]) == "1";
  const Shape sh = shape(std::string(argv[7]) == "1");
  const std::string workdir = argv[8];
  const std::string id = std::string("serve_openloop/") + stack.name + "/r" +
                         std::to_string(rate) + "/w" + std::to_string(win);
  tracer().enable(traced);
  if (traced) setenv("LLAMCAT_FASTPATH_STATS", "1", 1);

  WindowRun out;
  const SimConfig cfg = serve_machine(stack);
  std::vector<double> setup, gen, map;
  std::unique_ptr<RequestBatch> batch;
  std::unique_ptr<DecodePass> pass;
  std::vector<RequestSpec> reqs;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    {
      Timed t("scenario.generate_traffic", id);
      reqs = window_of(sh, trace_at(sh, seed, sh.gaps.at(rate)), win);
      gen.push_back(t.stop());
    }
    batch = std::make_unique<RequestBatch>(serve_model(), reqs);
    Timed t("trace.map", id);
    pass = std::make_unique<DecodePass>(
        *batch, serve_pass_config(*batch, traced), cfg);
    map.push_back(t.stop());
    setup.push_back(now_s() - t0);
  }
  out.gen_s = median(gen);
  out.setup_s = median(setup);
  out.map_s = median(map);

  BatchStats stats;
  {
    Timed t("sim.run", id);
    try {
      if (traced) {
        out.fastpath = capture_fastpath(workdir, [&] { stats = pass->run(1); });
      } else {
        stats = pass->run(1);
      }
    } catch (const std::exception& e) {
      // Like a crash: the window's requests all fail and its verdict must
      // repeat. Only the exceptions the defect's stray read raises are
      // disclosed; any other (a deadlock, a ledger violation) is not.
      (is_defect_exception(e) ? out.disclosed : out.unexpected)
          .push_back(id + ": engine run threw: " + e.what());
      out.threw = true;
      out.digest = "threw";
    }
    out.run_s = t.stop();
  }
  if (out.threw) {
    for (std::uint32_t i = 0; i < reqs.size(); ++i) {
      out.reqs.push_back({i, true, 0, 0, reqs[i].decode_steps, {}});
    }
    out.spans = tracer().spans();
    emit_child(std::cout, out);
    return 0;
  }

  Timed audit("scenario.audit", id);
  const ServeVerdict v =
      check_serve(*batch, pass->pass_config(), stats, sh.ttft_limit);
  out.digest = std::to_string(fnv1a(scenario::batch_stats_digest(stats)));
  out.audit_s = audit.stop();
  for (const std::string& s : v.disclosed) out.disclosed.push_back(id + ": " + s);
  for (const std::string& s : v.unexpected) {
    out.unexpected.push_back(id + ": " + s);
  }

  out.makespan = stats.makespan;
  out.stats = stats.total;
  double in_flight = 0.0, queued = 0.0, latency = 0.0;
  for (const scenario::RequestStats& r : stats.per_request) {
    Req q;
    q.id = r.id;
    q.steps = r.decode_steps;
    q.failed = v.failed_ids.count(r.id) != 0;
    if (!q.failed) {
      q.ttft = r.step_finish_cycles.front() - r.arrival_cycle;
      q.latency = r.finish_cycle - r.arrival_cycle;
      for (std::size_t k = 1; k < r.step_finish_cycles.size(); ++k) {
        q.gaps.push_back(r.step_finish_cycles[k] - r.step_finish_cycles[k - 1]);
      }
    }
    in_flight += static_cast<double>(r.slice.cycles_in_flight);
    queued += static_cast<double>(r.queued_cycles);
    latency += static_cast<double>(r.finish_cycle - r.arrival_cycle);
    out.reqs.push_back(std::move(q));
  }
  out.scen = {
      {"in_flight", in_flight},
      {"queued", queued},
      {"latency", latency},
      {"preemptions", static_cast<double>(stats.total_preemptions())},
      {"swapped_blocks", static_cast<double>(stats.total_swapped_blocks())},
      {"refetch_cycles", static_cast<double>(stats.total_refetch_cycles())},
      {"kv_lookups", static_cast<double>(stats.kv_block_lookups)},
      {"kv_hits", static_cast<double>(stats.kv_block_hits)},
      {"kv_shared_bytes", static_cast<double>(stats.kv_shared_bytes)},
      {"kv_logical_bytes", static_cast<double>(stats.kv_logical_bytes)},
  };
  out.spans = tracer().spans();
  emit_child(std::cout, out);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent.
// ---------------------------------------------------------------------------

Outcome run_serve(const Options& opt, const std::string& self_exe) {
  const Shape sh = shape(opt.tiny);
  const std::size_t llamcat_ix = 2;
  const double core_hz = serve_machine(stacks()[llamcat_ix]).core_hz;

  // The round: every rate under llamcat, plus the reporting rate under the
  // other two stacks.
  struct Job {
    std::size_t rate;
    std::size_t stack;
  };
  std::vector<Job> jobs;
  for (std::size_t r = 0; r < sh.gaps.size(); ++r) jobs.push_back({r, llamcat_ix});
  for (std::size_t s = 0; s < stacks().size(); ++s) {
    if (s != llamcat_ix) jobs.push_back({sh.report, s});
  }

  Outcome out;
  std::vector<double> host_untraced, host_traced, setup_samples, gen_samples,
      map_samples, audit_samples;
  // Reference-kernel times taken between the untraced pass's engine runs.
  std::vector<double> refs;
  // [job][window] of the latest round, and round 0's digests/verdicts.
  std::vector<std::vector<WindowRun>> latest(jobs.size());
  std::vector<std::vector<std::string>> reference(jobs.size());
  std::vector<std::vector<bool>> reference_defect(jobs.size());
  std::size_t rounds = 0;
  // A fixed amount of work: one untraced pass over every job (and, in
  // traced mode, one traced pass). Its many windows give the host-time
  // total; a sample of more passes would not fit the time budget.
  for (; rounds < (opt.trace ? 2u : 1u); ++rounds) {
    const bool traced = opt.trace && rounds > 0;
    tracer().enable(traced);
    const int round_span = tracer().open("round", "serve_openloop");
    double host = 0.0, setup = 0.0, map = 0.0, audit = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      latest[j].clear();
      for (std::uint32_t w = 0; w < sh.windows; ++w) {
        const std::string id = std::string("serve_openloop/") +
                               stacks()[jobs[j].stack].name + "/r" +
                               std::to_string(jobs[j].rate) + "/w" +
                               std::to_string(w);
        if (!traced && w % 2 == 0) refs.push_back(reference_s());
        const int span = tracer().open("serve.child", id);
        WindowRun run = spawn_child(
            self_exe, {"--serve-child", std::to_string(opt.seed),
                       std::to_string(jobs[j].rate), std::to_string(w),
                       std::to_string(jobs[j].stack), traced ? "1" : "0",
                       opt.tiny ? "1" : "0", opt.workdir});
        const int base = static_cast<int>(tracer().spans().size());
        if (traced) {
          for (const Span& sp : run.spans) tracer().add(sp, base);
        }
        tracer().close(span);

        out.attempted += sh.per_window;
        std::string verdict = run.crashed ? run.crash : run.digest;
        // Disclosed verdicts repeat across rounds (checked below): list
        // them once. The traced pass allocates differently (audit,
        // captures), so in a window whose untraced pass showed the defect
        // the stray read lands elsewhere: what the traced pass shows there
        // is the defect's too.
        const bool proven = rounds > 0 && reference_defect[j][w];
        if (run.crashed) {
          out.failed += sh.per_window;
          if (!run.crash_is_defect && !proven) {
            out.unexpected.push_back(id + ": " + run.crash);
          } else if (rounds == 0) {
            out.disclosed.push_back(id + ": " + run.crash);
          }
        } else {
          for (const Req& q : run.reqs) out.failed += q.failed ? 1 : 0;
          if (rounds == 0) {
            for (const std::string& s : run.disclosed) out.disclosed.push_back(s);
          }
          for (const std::string& s : run.unexpected) {
            (proven ? out.disclosed : out.unexpected).push_back(s);
          }
          host += run.run_s;
          setup += run.setup_s;
          map += run.map_s;
          audit += run.audit_s;
          gen_samples.push_back(run.gen_s);
        }
        const bool defect = run.crash_is_defect || !run.disclosed.empty();
        if (rounds == 0) {
          reference[j].push_back(verdict);
          reference_defect[j].push_back(defect);
        } else if (verdict != reference[j][w]) {
          // A window that shows the defect in either pass is disclosed, any
          // other change is not.
          const std::string what = id + ": traced outcome differs (" +
                                   verdict + " vs " + reference[j][w] + ")";
          (defect || reference_defect[j][w] ? out.disclosed : out.unexpected)
              .push_back(what);
        }
        latest[j].push_back(std::move(run));
      }
    }
    if (!traced) refs.push_back(reference_s());
    // Equal work across stacks: each window of the reporting rate maps the
    // same requests under every stack. The defect's stray enqueues add
    // thread blocks, so a window that shows it may differ.
    for (std::uint32_t w = 0; w < sh.windows; ++w) {
      std::vector<const WindowRun*> same;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].rate == sh.report) same.push_back(&latest[j][w]);
      }
      bool ran = true, defect = false;
      for (const WindowRun* r : same) {
        ran &= !r->crashed && !r->threw;
        defect |= r->crash_is_defect || !r->disclosed.empty();
      }
      if (!ran) continue;  // no stats to compare; the failure is listed
      for (const WindowRun* r : same) {
        if (r->stats.thread_blocks == same.front()->stats.thread_blocks) {
          continue;
        }
        const std::string what =
            "serve_openloop/r" + std::to_string(sh.report) + "/w" +
            std::to_string(w) + ": thread_blocks differ across stacks";
        if (!defect) {
          out.unexpected.push_back(what);
        } else if (rounds == 0) {
          out.disclosed.push_back(what);
        }
        break;
      }
    }
    (traced ? host_traced : host_untraced).push_back(host);
    setup_samples.push_back(setup);
    map_samples.push_back(map);
    audit_samples.push_back(audit);
    tracer().close(round_span);
  }
  tracer().enable(false);
  if (rounds == 1) {
    // Same-seed repeat of one window: the simulated outcome must not move.
    const WindowRun again = spawn_child(
        self_exe, {"--serve-child", std::to_string(opt.seed),
                   std::to_string(sh.report), "0", std::to_string(llamcat_ix),
                   "0", opt.tiny ? "1" : "0", opt.workdir});
    const std::string verdict = again.crashed ? again.crash : again.digest;
    if (verdict != reference[sh.report][0]) {
      out.unexpected.push_back("serve_openloop: repeated window outcome "
                               "differs (" + verdict + " vs " +
                               reference[sh.report][0] + ")");
    }
  }

  // Rate ladder under llamcat, ascending offered rate.
  std::vector<RatePoint> ladder;
  for (std::size_t r = 0; r < sh.gaps.size(); ++r) {
    ladder.push_back(summarize(sh, latest[r], core_hz / sh.gaps[r]));
  }
  std::sort(ladder.begin(), ladder.end(),
            [](const RatePoint& a, const RatePoint& b) { return a.qps < b.qps; });
  const RatePoint at = summarize(sh, latest[sh.report], core_hz / sh.gaps[sh.report]);

  // Speedups: mean latency of requests that succeeded under both stacks.
  const auto speedup_vs = [&](std::size_t job) {
    double base_lat = 0.0, ours = 0.0;
    for (std::uint32_t w = 0; w < sh.windows; ++w) {
      const WindowRun& a = latest[job][w];
      const WindowRun& b = latest[sh.report][w];
      if (a.crashed || b.crashed) continue;
      for (std::size_t i = 0; i < a.reqs.size() && i < b.reqs.size(); ++i) {
        if (a.reqs[i].failed || b.reqs[i].failed) continue;
        base_lat += static_cast<double>(a.reqs[i].latency);
        ours += static_cast<double>(b.reqs[i].latency);
      }
    }
    return ours > 0.0 ? base_lat / ours : 0.0;
  };
  const std::size_t unopt_job = sh.gaps.size(), dyncta_job = sh.gaps.size() + 1;

  // A rate/stack job where no request succeeded has nothing to measure: a
  // broken engine must not read as a fast one.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    bool any = false;
    for (const WindowRun& w : latest[j]) {
      for (const Req& q : w.reqs) any |= !q.failed;
    }
    if (!any) {
      out.unexpected.push_back(
          std::string("serve_openloop/") + stacks()[jobs[j].stack].name +
          "/r" + std::to_string(jobs[j].rate) + ": no request succeeded");
    }
  }
  // An undefined reporting-rate figure reads as the worst value its
  // direction allows and makes the run incorrect.
  const auto defined = [&](double value, bool ok, const char* name,
                           bool lower_is_better) {
    if (ok) return value;
    out.unexpected.push_back(std::string("serve_openloop: ") + name +
                             " undefined (no successful request)");
    return lower_is_better ? std::numeric_limits<double>::max() : 0.0;
  };

  std::cout << "serve_openloop: " << sh.windows << " windows of "
            << sh.per_window << " requests per rate, TTFT limit " << sh.ttft_limit
            << " cycles, TBT limit " << sh.tbt_limit << " cycles, target share "
            << kTargetShare << ", " << rounds << " rounds\n";
  std::cout << "  rate(req/s)  requests  share_met  ttft_p50  ttft_p90  tbt_p50"
               "  tbt_p90  failed  crashed_windows  growing\n";
  for (const RatePoint& p : ladder) {
    std::cout << "  " << std::setw(11) << p.qps << "  " << std::setw(8)
              << p.attempted << "  " << std::setw(9)
              << p.share() << "  " << std::setw(8) << percentile(p.ttft, 50)
              << "  " << std::setw(8) << percentile(p.ttft, 90) << "  "
              << std::setw(7) << percentile(p.tbt, 50) << "  " << std::setw(7)
              << percentile(p.tbt, 90) << "  " << std::setw(6) << p.failed
              << "  " << std::setw(15) << p.crashed_windows << "  "
              << (p.growing ? "yes" : "no") << "\n";
  }
  print_samples("  host s (sum of the round's DecodePass::run)",
                opt.trace ? host_traced : host_untraced);
  print_samples("  reference kernel s", refs);

  Metrics& m = out.metrics;
  if (!opt.trace) {
    m.add("host_s", reference_seconds(host_untraced.front(), refs), "s");
    m.add("setup_s", reference_seconds(setup_samples.front(), refs), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
    const bool ran = at.makespan > 0;
    const double vs_unopt = speedup_vs(unopt_job);
    const double vs_dyncta = speedup_vs(dyncta_job);
    m.add("sim_cycles",
          defined(static_cast<double>(at.makespan), ran, "sim_cycles", true),
          "cycles");
    m.add("speedup_vs_unopt",
          defined(vs_unopt, vs_unopt > 0.0, "speedup_vs_unopt", false), "x");
    m.add("speedup_vs_dyncta",
          defined(vs_dyncta, vs_dyncta > 0.0, "speedup_vs_dyncta", false),
          "x");
    const bool have_ttft = !at.ttft.empty(), have_tbt = !at.tbt.empty();
    m.add("ttft_p50_cyc",
          defined(percentile(at.ttft, 50), have_ttft, "ttft_p50_cyc", true),
          "cycles");
    m.add("ttft_p90_cyc",
          defined(percentile(at.ttft, 90), have_ttft, "ttft_p90_cyc", true),
          "cycles");
    m.add("tbt_p50_cyc",
          defined(percentile(at.tbt, 50), have_tbt, "tbt_p50_cyc", true),
          "cycles");
    m.add("tbt_p90_cyc",
          defined(percentile(at.tbt, 90), have_tbt, "tbt_p90_cyc", true),
          "cycles");
    m.add("goodput_tps",
          defined(ran ? at.good_tokens * core_hz / at.makespan : 0.0, ran,
                  "goodput_tps", false),
          "tokens/s");
    m.add("max_sustainable_qps", max_sustainable(ladder), "req/s");
    return out;
  }

  // Per-layer: each stack's reporting-rate windows, summed.
  std::uint64_t thread_blocks = 0;
  for (std::size_t s = 0; s < stacks().size(); ++s) {
    const std::size_t job =
        s == llamcat_ix ? sh.report : (s == 0 ? unopt_job : dyncta_job);
    MachineRun run;
    for (const WindowRun& w : latest[job]) {
      if (w.crashed) continue;
      run.stats.accumulate(w.stats);
      run.build_s += w.map_s;
      run.run_s += w.run_s;
      run.fastpath.stepped += w.fastpath.stepped;
      run.fastpath.skipped += w.fastpath.skipped;
    }
    if (s == llamcat_ix) thread_blocks = run.stats.thread_blocks;
    add_machine_layers(m, stacks()[s].name, run, serve_machine(stacks()[s]));
  }
  std::map<std::string, double> scen;
  for (const WindowRun& w : latest[sh.report]) {
    for (const auto& [k, v] : w.scen) scen[k] += v;
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m.add("trace.map_s", median(map_samples), "s");
  m.add("trace.thread_blocks", static_cast<double>(thread_blocks), "count");
  m.add("trace.overhead_s", median(host_traced) - median(host_untraced), "s");
  m.add("scenario.traffic_gen_s", median(gen_samples), "s");
  m.add("scenario.audit_s", median(audit_samples), "s");
  m.add("scenario.queue_wait_share", ratio(scen["queued"], scen["latency"]),
        "ratio");
  m.add("scenario.mean_resident",
        ratio(scen["in_flight"], static_cast<double>(at.makespan)),
        "requests");
  m.add("scenario.preemptions", scen["preemptions"], "count");
  m.add("scenario.swapped_blocks", scen["swapped_blocks"], "count");
  m.add("scenario.refetch_cycles", scen["refetch_cycles"], "cycles");
  m.add("scenario.kv_hit_rate", ratio(scen["kv_hits"], scen["kv_lookups"]),
        "ratio");
  m.add("scenario.kv_dedup_ratio",
        ratio(scen["kv_shared_bytes"], scen["kv_logical_bytes"]), "ratio");
  return out;
}

}  // namespace perfbench
