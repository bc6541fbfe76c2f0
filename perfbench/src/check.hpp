// The benchmark's output check: what a run must satisfy for its metrics to
// count. Split from the runners so the benchmark's own tests can feed it
// tampered stats.
#pragma once

#include <cstdint>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/sim_stats.hpp"

namespace perfbench {

/// The five counter identities every simulation conserves (the same ones
/// tests/test_stress.cpp checks): requests in == served, hits + misses ==
/// lookups, MSHR merges + allocations == misses, allocations == DRAM reads,
/// fills == DRAM reads. Returns one line per broken identity.
std::vector<std::string> conservation_violations(const llamcat::SimStats& s);

/// Canonical text of a machine run's simulated outcome (cycles, thread
/// blocks, every counter): equal iff the simulated results are identical.
std::string counter_digest(const llamcat::SimStats& s);

/// FNV-1a of a digest string, for printing.
std::uint64_t fnv1a(const std::string& text);

/// True for an audit line that is the disclosed paged-preemption defect's
/// signature: a request's step-finish landmarks with the wrong count, out
/// of order, or disagreeing with its finish (the stray operator completes
/// after the request retired), or its first dispatch ahead of its admission
/// or arrival (a stray operator of a request not yet admitted runs).
bool is_landmark_violation(const std::string& line);

/// True for an exception the defect's stray read is known to raise: an
/// allocation with a garbage size (bad_alloc, length_error), a retired
/// request re-enqueued ("DynamicTbSource: ... already retired"), or an
/// operator built from garbage ("OperatorSpec: ..."; every request of the
/// benchmark passed RequestBatch's checks, so no real operator fails
/// there). Anything else a serving run throws (a deadlock, a ledger
/// violation, a bad config) is not attributed to it.
bool is_defect_exception(const std::exception& e);

/// True for a signal the defect's out-of-bounds read can end a process
/// with (SIGSEGV, SIGBUS). Other signals and every non-zero exit status are
/// not attributed to it.
bool is_defect_signal(int sig);

/// Verdict on one serving run.
struct ServeVerdict {
  /// Requests that failed the contract (excluded from percentiles, counted
  /// as misses against both limits).
  std::set<std::uint32_t> failed_ids;
  /// Landmark violations (is_landmark_violation) of a pass that swapped KV
  /// out: the disclosed paged-preemption defect.
  std::vector<std::string> disclosed;
  /// Anything else: batch-level violations, every other request-scoped
  /// violation, landmark violations of a pass that never swapped, broken
  /// counter identities.
  std::vector<std::string> unexpected;
};

/// Runs audit_batch, audit_open_loop and the counter identities on one
/// finished serving pass and sorts every violation (see ServeVerdict).
ServeVerdict check_serve(const llamcat::scenario::RequestBatch& batch,
                         const llamcat::scenario::DecodePassConfig& pass_cfg,
                         const llamcat::scenario::BatchStats& stats,
                         llamcat::Cycle ttft_limit);

}  // namespace perfbench
