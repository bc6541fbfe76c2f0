// Unit tests of the benchmark's output check: it must accept a clean run
// and reject a tampered one. Run by tests/test_perfbench.py (or directly:
// .bench_build/perfbench/build/perfbench_tests).
#include <algorithm>
#include <csignal>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>

#include "check.hpp"
#include "scenario/scenario.hpp"
#include "serve.hpp"
#include "sim/experiment.hpp"

using namespace llamcat;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

SimConfig small_machine() { return serve_machine(stacks().back()); }

bool mentions(const std::vector<std::string>& lines, const std::string& what) {
  return std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
    return l.find(what) != std::string::npos;
  });
}

void counter_identities() {
  const SimConfig cfg = small_machine();
  const SimStats clean =
      run_simulation(cfg, Workload::logit(serve_model(), 256, cfg));
  expect(conservation_violations(clean).empty(),
         "a clean run conserves every counter identity");

  SimStats tampered = clean;
  tampered.counters.inc("llc.fills");
  expect(conservation_violations(tampered).size() == 1,
         "an extra LLC fill breaks exactly the fills == DRAM reads identity");
  expect(counter_digest(tampered) != counter_digest(clean),
         "the counter digest sees the tampered counter");

  tampered = clean;
  tampered.counters.inc("llc.hits");
  expect(!conservation_violations(tampered).empty(),
         "an extra LLC hit breaks hits + misses == lookups");
}

void dropped_landmark() {
  const std::vector<scenario::RequestSpec> reqs = {
      {0, 128, 0, 2}, {1, 64, 2000, 2}, {2, 96, 4000, 1}};
  const scenario::RequestBatch batch(serve_model(), reqs);
  scenario::DecodePassConfig pc;
  pc.num_layers = 1;
  pc.include_gemv = false;
  pc.mode = ExecutionMode::kContinuous;
  const scenario::DecodePass pass(batch, pc, small_machine());
  const scenario::BatchStats clean = pass.run(1);

  const ServeVerdict ok = check_serve(batch, pc, clean, 1'000'000);
  expect(ok.failed_ids.empty() && ok.unexpected.empty() &&
             ok.disclosed.empty(),
         "a clean serving run passes the check");

  scenario::BatchStats tampered = clean;
  tampered.per_request[0].step_finish_cycles.pop_back();
  const ServeVerdict bad = check_serve(batch, pc, tampered, 1'000'000);
  expect(bad.failed_ids.count(tampered.per_request[0].id) == 1,
         "a dropped step landmark fails its request");
  expect(!bad.unexpected.empty(),
         "a dropped landmark on a never-preempted request is unexpected");
  expect(bad.failed_ids.size() == 1, "no other request is failed");
}

// On a pass that swapped KV out (the disclosed defect's path) only the
// defect's signature - a landmark violation - is disclosed; any other
// violation on the same pass stays unexpected.
void swapping_pass() {
  std::vector<scenario::RequestSpec> reqs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    reqs.push_back({i, 64 + 32 * (i % 3), 500ull * i, 2 + i % 3});
  }
  const scenario::RequestBatch batch(serve_model(), reqs);
  const scenario::DecodePassConfig pc = serve_pass_config(batch, false);
  const scenario::DecodePass pass(batch, pc, small_machine());
  const scenario::BatchStats clean = pass.run(1);
  expect(clean.total_swapped_blocks() > 0, "the serving config swaps KV out");

  const ServeVerdict ok = check_serve(batch, pc, clean, 1'000'000);
  expect(ok.failed_ids.empty() && ok.unexpected.empty() &&
             ok.disclosed.empty(),
         "a clean swapping run passes the check");

  scenario::BatchStats tampered = clean;
  tampered.per_request[0].step_finish_cycles.pop_back();
  // Admission before arrival: request-scoped, but no landmark.
  tampered.per_request[1].admit_cycle = reqs[1].arrival_cycle - 1;
  const ServeVerdict v = check_serve(batch, pc, tampered, 1'000'000);
  expect(v.failed_ids.count(0) == 1 && v.failed_ids.count(1) == 1 &&
             v.failed_ids.size() == 2,
         "both tampered requests fail, no other");
  expect(mentions(v.disclosed, "request 0:") &&
             !mentions(v.unexpected, "request 0:"),
         "the dropped landmark on a swapping pass is disclosed");
  expect(mentions(v.unexpected, "request 1:") &&
             !mentions(v.disclosed, "request 1:"),
         "a non-landmark violation on the same pass is unexpected");
}

void crash_attribution() {
  expect(is_defect_exception(std::bad_alloc()),
         "bad_alloc is the defect's garbage-size allocation");
  expect(is_defect_exception(std::invalid_argument(
             "DynamicTbSource: request 3 was already retired")),
         "a retired request re-enqueued is the defect's stray enqueue");
  expect(!is_defect_exception(
             std::runtime_error("System::run exceeded max_cycles (deadlock?)")),
         "a deadlock is not attributed to the defect");
  expect(is_defect_exception(
             std::invalid_argument("OperatorSpec: zero sequence length")),
         "an operator built from garbage is the defect's stray read");
  expect(!is_defect_exception(std::invalid_argument("RequestBatch: empty batch")),
         "a bad input is not attributed to the defect");
  expect(is_defect_signal(SIGSEGV), "SIGSEGV is the defect's stray read");
  expect(!is_defect_signal(SIGABRT) && !is_defect_signal(SIGKILL),
         "other signals are not attributed to the defect");
}

}  // namespace

int main() {
  counter_identities();
  dropped_landmark();
  swapping_pass();
  crash_attribution();
  std::cout << (failures ? "FAILED" : "PASSED") << " (" << failures
            << " failures)\n";
  return failures ? 1 : 0;
}
