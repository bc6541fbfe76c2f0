// Shared vocabulary of the repository benchmark: options, the metric sink,
// the span recorder, host-time helpers and the per-layer readout of one
// simulation. Every layer is measured from outside: the benchmark times its
// own calls into the library's public functions and reads public stats and
// introspection after each run (README.md has the glossary).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "sim/sim_stats.hpp"

namespace llamcat {
class System;
}

namespace perfbench {

using llamcat::Cycle;
using llamcat::SimConfig;
using llamcat::SimStats;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Small problem sizes for the benchmark's own tests.
  bool tiny = false;
  /// Scratch directory inside the checkout (stderr captures, span files).
  std::string workdir = ".bench_build/perfbench";
};

/// Host wall time in seconds on the steady clock (comparable across the
/// benchmark's child processes: CLOCK_MONOTONIC is system-wide).
double now_s();

/// Wall time of the benchmark's reference kernel: a fixed integer loop and
/// sort in bench.cpp that calls nothing in the library (~0.1 s on the
/// 4-core Xeon host the benchmark was tuned on). On a shared host the speed
/// a single thread gets swings by tens of percent over tens of seconds.
/// Dividing a run's wall times by the mean reference time taken between its
/// simulate calls cancels most of the swing, while any change to the
/// simulator's own speed passes through in full.
double reference_s();

/// The reference kernel's nominal time. host_s and setup_s are reference
/// seconds: wall seconds scaled to a host on which reference_s() takes
/// this long.
constexpr double kReferenceS = 0.1;

double mean(const std::vector<double>& v);

/// `wall_s` in reference seconds, given the run's reference-kernel times.
double reference_seconds(double wall_s, const std::vector<double>& refs);

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0,100]) of `v`; 0 for an empty input.
double percentile(std::vector<double> v, double p);
/// Peak resident set of this process or any child it waited for, in MiB.
double peak_rss_mb();

/// Ordered name -> (value, unit) sink, printed as the result's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What one workload run reports: the last stdout line is its JSON form.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Violations outside the disclosed engine defect: any entry makes the
  /// result incorrect.
  std::vector<std::string> unexpected;
  /// Violations of the disclosed paged-preemption defect (counted in
  /// `failed`, printed, not fatal).
  std::vector<std::string> disclosed;
  Metrics metrics;

  [[nodiscard]] bool correct() const { return unexpected.empty(); }
  [[nodiscard]] std::string json() const;
};

// ---------------------------------------------------------------------------
// Spans (traced mode only): recorded by the benchmark's own files around
// each call into a layer, kept in memory, written at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  /// workload/stack/rate id, e.g. "serve_openloop/llamcat/r1/w0".
  std::string id;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  /// Opens a span under the innermost open one; returns its index (-1 when
  /// tracing is off).
  int open(const std::string& name, const std::string& id);
  void close(int index);
  /// Adds a finished span reported by a child process: its root spans go
  /// under the innermost open span, and `parent_offset` re-bases the
  /// child's own parent indices.
  void add(Span span, int parent_offset);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }
  /// Self time per span name: duration minus the time covered by children.
  [[nodiscard]] std::map<std::string, std::pair<double, std::uint64_t>>
  self_times() const;
  void write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span: times its scope whether or not tracing is on, and records a
/// span when it is.
class Timed {
 public:
  Timed(const std::string& name, const std::string& id)
      : index_(tracer().open(name, id)), t0_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  /// Ends the span and returns its duration (idempotent).
  double stop();

 private:
  int index_;
  double t0_;
  double dt_ = -1.0;
};

// ---------------------------------------------------------------------------
// Fast-path telemetry: with LLAMCAT_FASTPATH_STATS=1 System::run prints one
// "[fastpath] ..." line per run to stderr; the traced mode captures them.
// ---------------------------------------------------------------------------

struct FastPath {
  std::uint64_t stepped = 0;
  std::uint64_t skipped = 0;
};

/// Runs `fn` with fd 2 redirected into a file under `workdir` and sums the
/// fast-path lines it printed; other stderr output is passed through.
FastPath capture_fastpath(const std::string& workdir,
                          const std::function<void()>& fn);

// ---------------------------------------------------------------------------
// Per-layer readout of one machine run.
// ---------------------------------------------------------------------------

/// Introspection only a caller that owns the System can read; the serving
/// engine builds its Systems inside DecodePass::run, so serve runs leave it
/// empty.
struct Introspect {
  std::vector<double> core_instructions;
  std::vector<double> slice_mshr_util;
  double tb_stolen = 0.0;
};

Introspect introspect(const llamcat::System& sys);

/// One stack's run as the per-layer metrics see it.
struct MachineRun {
  SimStats stats;
  Introspect intro;
  double build_s = 0.0;
  double run_s = 0.0;
  FastPath fastpath;
};

/// Adds the sim/vcore/cache/llc/dram metrics of `run` with `.suffix`.
void add_machine_layers(Metrics& m, const std::string& suffix,
                        const MachineRun& run, const SimConfig& cfg);

/// The three named policy stacks every workload runs.
struct Stack {
  const char* name;
  llamcat::ThrottlePolicy thr;
  llamcat::ArbPolicy arb;
};
const std::vector<Stack>& stacks();

/// Workload runners (paper.cpp / serve.cpp).
Outcome run_paper(const Options& opt, bool capacity_bound);
Outcome run_serve(const Options& opt, const std::string& self_exe);
/// Child-process entry of one serving simulation (see serve.cpp).
int serve_child_main(int argc, char** argv);

/// Prints a labelled list of host-time samples with its count and median.
void print_samples(const std::string& what, const std::vector<double>& v);

}  // namespace perfbench
