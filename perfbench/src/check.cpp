#include "check.hpp"

#include <csignal>
#include <cstdio>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>

#include "scenario/invariants.hpp"

namespace perfbench {

using llamcat::scenario::BatchStats;
using llamcat::scenario::RequestStats;

std::vector<std::string> conservation_violations(const llamcat::SimStats& s) {
  const auto& c = s.counters;
  struct Identity {
    const char* lhs_name;
    std::uint64_t lhs;
    const char* rhs_name;
    std::uint64_t rhs;
  };
  const Identity ids[] = {
      {"llc.requests_in", c.get("llc.requests_in"), "llc.requests_served",
       c.get("llc.requests_served")},
      {"llc.hits + llc.misses", c.get("llc.hits") + c.get("llc.misses"),
       "llc.lookups", c.get("llc.lookups")},
      {"llc.mshr_hits + llc.mshr_allocs",
       c.get("llc.mshr_hits") + c.get("llc.mshr_allocs"), "llc.misses",
       c.get("llc.misses")},
      {"llc.mshr_allocs", c.get("llc.mshr_allocs"), "dram.reads",
       c.get("dram.reads")},
      {"llc.fills", c.get("llc.fills"), "dram.reads", c.get("dram.reads")},
  };
  std::vector<std::string> out;
  for (const Identity& id : ids) {
    if (id.lhs != id.rhs) {
      std::ostringstream os;
      os << "counter identity broken: " << id.lhs_name << " (" << id.lhs
         << ") != " << id.rhs_name << " (" << id.rhs << ")";
      out.push_back(os.str());
    }
  }
  return out;
}

std::string counter_digest(const llamcat::SimStats& s) {
  std::ostringstream os;
  os << "cycles=" << s.cycles << " tb=" << s.thread_blocks
     << " insts=" << s.instructions;
  for (const auto& [name, v] : s.counters.counters()) {
    os << ' ' << name << '=' << v;
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// "request <id>: ..." -> id; false for batch-level lines.
bool request_of(const std::string& line, std::uint32_t& id) {
  unsigned long v = 0;
  if (std::sscanf(line.c_str(), "request %lu", &v) != 1) return false;
  id = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

bool is_landmark_violation(const std::string& line) {
  // The landmark checks of audit_batch and audit_open_loop, by their text.
  static const char* const kPhrases[] = {
      "step-finish landmarks for",        // count (both audits)
      ", before the previous landmark",   // order (audit_batch)
      " moves backwards (previous ",      // order (audit_open_loop)
      ": last step finished at ",         // finish (audit_batch)
      ": last step landmark ",            // finish (audit_open_loop)
      ") before last completion (",       // finish vs stray completion
  };
  for (const char* p : kPhrases) {
    if (line.find(p) != std::string::npos) return true;
  }
  // The dispatch landmark (both audits): "first dispatch (x) before
  // admission (y)" or "... before arrival (y)".
  return line.find(": first dispatch (") != std::string::npos &&
         (line.find(") before admission (") != std::string::npos ||
          line.find(") before arrival (") != std::string::npos);
}

bool is_defect_exception(const std::exception& e) {
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) return true;
  if (dynamic_cast<const std::length_error*>(&e) != nullptr) return true;
  const std::string what = e.what();
  if (what.rfind("OperatorSpec: ", 0) == 0) return true;
  return what.rfind("DynamicTbSource: request ", 0) == 0 &&
         what.find(" was already retired") != std::string::npos;
}

bool is_defect_signal(int sig) { return sig == SIGSEGV || sig == SIGBUS; }

ServeVerdict check_serve(const llamcat::scenario::RequestBatch& batch,
                         const llamcat::scenario::DecodePassConfig& pass_cfg,
                         const BatchStats& stats, llamcat::Cycle ttft_limit) {
  ServeVerdict v;
  std::map<std::uint32_t, const RequestStats*> by_id;
  for (const RequestStats& r : stats.per_request) by_id[r.id] = &r;

  std::vector<std::string> lines =
      llamcat::scenario::audit_batch(batch, pass_cfg, stats).violations;
  for (std::string& l :
       llamcat::scenario::audit_open_loop(batch.requests(), stats, ttft_limit)
           .violations) {
    lines.push_back(std::move(l));
  }
  // The defect sits on the paged resume path, so only a pass that swapped
  // KV out can show it. The stray operator it enqueues can belong to any
  // request of the pass, so there any request's landmark violation is
  // attributed to it - and nothing else is.
  bool swapped = false;
  for (const RequestStats& r : stats.per_request) {
    swapped |= r.swapped_blocks > 0;
  }
  for (const std::string& line : lines) {
    std::uint32_t id = 0;
    if (request_of(line, id) && by_id.count(id) != 0) {
      v.failed_ids.insert(id);
      (swapped && is_landmark_violation(line) ? v.disclosed : v.unexpected)
          .push_back(line);
    } else {
      v.unexpected.push_back(line);
    }
  }
  // A request whose landmarks cannot be read is a failed request even if
  // no audit line named it (the metrics below index step_finish_cycles).
  for (const RequestStats& r : stats.per_request) {
    if (r.step_finish_cycles.size() != r.decode_steps ||
        r.step_finish_cycles.empty()) {
      v.failed_ids.insert(r.id);
    }
  }
  for (std::string& l : conservation_violations(stats.total)) {
    v.unexpected.push_back(std::move(l));
  }
  return v;
}

}  // namespace perfbench
