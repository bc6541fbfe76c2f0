#include "scenario/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <optional>

#include "scenario/invariants.hpp"
#include "scenario/kv_block_pool.hpp"
#include "sim/system.hpp"
#include "trace/dynamic_source.hpp"

namespace llamcat::scenario {

std::string to_string(StageKind k) {
  switch (k) {
    case StageKind::kLogit: return "logit";
    case StageKind::kAttend: return "attend";
    case StageKind::kGemv: return "gemv";
  }
  return "?";
}


RequestBatch::RequestBatch(ModelShape model, std::vector<RequestSpec> requests)
    : model_(std::move(model)), requests_(std::move(requests)) {
  if (requests_.empty()) {
    throw std::invalid_argument("RequestBatch: empty batch");
  }
  std::unordered_set<std::uint32_t> ids;
  for (const RequestSpec& r : requests_) {
    if (r.seq_len == 0) {
      throw std::invalid_argument("RequestBatch: zero seq_len");
    }
    if (r.decode_steps == 0) {
      throw std::invalid_argument("RequestBatch: zero decode_steps");
    }
    if (!ids.insert(r.id).second) {
      throw std::invalid_argument("RequestBatch: duplicate request id " +
                                  std::to_string(r.id));
    }
    if (r.prefix_group == kNoPrefixGroup) {
      if (r.prefix_tokens != 0) {
        throw std::invalid_argument(
            "RequestBatch: request " + std::to_string(r.id) +
            " declares prefix tokens without a prefix group");
      }
    } else if (r.prefix_tokens == 0 || r.prefix_tokens > r.seq_len) {
      throw std::invalid_argument(
          "RequestBatch: request " + std::to_string(r.id) +
          " prefix length must be in [1, seq_len]; got " +
          std::to_string(r.prefix_tokens) + " of " +
          std::to_string(r.seq_len) + " tokens");
    }
  }
}

RequestBatch RequestBatch::uniform(const ModelShape& model, std::uint32_t n,
                                   std::uint64_t seq_len) {
  std::vector<RequestSpec> reqs;
  reqs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) reqs.push_back({i, seq_len});
  return RequestBatch(model, std::move(reqs));
}

RequestBatch RequestBatch::with_seq_lens(
    const ModelShape& model, const std::vector<std::uint64_t>& seq_lens) {
  std::vector<RequestSpec> reqs;
  reqs.reserve(seq_lens.size());
  for (std::size_t i = 0; i < seq_lens.size(); ++i) {
    reqs.push_back({static_cast<std::uint32_t>(i), seq_lens[i]});
  }
  return RequestBatch(model, std::move(reqs));
}

std::uint64_t RequestBatch::kv_tokens_at_step(const RequestSpec& r,
                                              std::uint32_t step) const {
  // Mirrors the schedule construction: decode step s extends a KV cache the
  // previous steps grew to seq_len + s tokens, rounded up to a whole cache
  // line of elements (block-granular KV allocation).
  if (step == 0) return r.seq_len;
  const std::uint64_t granule = kLineBytes / model_.dtype_bytes;
  return (r.seq_len + step + granule - 1) / granule * granule;
}

std::uint64_t RequestBatch::peak_kv_tokens(const RequestSpec& r) const {
  return kv_tokens_at_step(r, r.decode_steps - 1);
}

std::uint64_t RequestBatch::total_peak_kv_tokens() const {
  std::uint64_t total = 0;
  for (const RequestSpec& r : requests_) total += peak_kv_tokens(r);
  return total;
}

std::uint64_t RequestBatch::kv_bytes_per_token() const {
  return static_cast<std::uint64_t>(model_.num_kv_heads) * model_.head_dim *
         model_.dtype_bytes;
}

std::uint64_t RequestBatch::peak_kv_bytes(const RequestSpec& r,
                                          std::uint32_t num_layers) const {
  return peak_kv_tokens(r) * kv_bytes_per_token() * num_layers;
}

std::uint64_t RequestBatch::prefix_kv_bytes(const RequestSpec& r,
                                            std::uint32_t num_layers) const {
  if (r.prefix_group == kNoPrefixGroup) return 0;
  // The prefix occupies the leading prefix_tokens of every layer's KV;
  // aggregated across layers like peak_kv_bytes (prefix_tokens <= seq_len
  // <= peak tokens, so this never exceeds the footprint).
  return r.prefix_tokens * kv_bytes_per_token() * num_layers;
}

std::uint64_t RequestBatch::total_peak_kv_bytes(
    std::uint32_t num_layers) const {
  std::uint64_t total = 0;
  for (const RequestSpec& r : requests_) total += peak_kv_bytes(r, num_layers);
  return total;
}

Cycle BatchStats::latency_percentile(double p) const {
  // Barrier modes never fill the stream landmarks; aggregating their
  // zero-initialized rows would silently report 0-cycle latencies, so the
  // sentinel makes a mixed-mode policy table impossible to mis-read.
  if (mode != ExecutionMode::kContinuous || per_request.empty()) {
    return kNeverCycle;
  }
  std::vector<Cycle> latencies;
  latencies.reserve(per_request.size());
  for (const RequestStats& r : per_request) latencies.push_back(r.latency());
  return percentile_nearest_rank(std::move(latencies), p);
}

Cycle BatchStats::ttft_percentile(double p) const {
  if (mode != ExecutionMode::kContinuous || per_request.empty()) {
    return kNeverCycle;
  }
  std::vector<Cycle> ttfts;
  ttfts.reserve(per_request.size());
  for (const RequestStats& r : per_request) ttfts.push_back(r.ttft());
  return percentile_nearest_rank(std::move(ttfts), p);
}

Cycle BatchStats::tbt_percentile(double p) const {
  if (mode != ExecutionMode::kContinuous) return kNeverCycle;
  std::vector<Cycle> gaps;
  for (const RequestStats& r : per_request) {
    for (std::size_t k = 1; k < r.step_finish_cycles.size(); ++k) {
      gaps.push_back(r.step_finish_cycles[k] - r.step_finish_cycles[k - 1]);
    }
  }
  if (gaps.empty()) return kNeverCycle;
  return percentile_nearest_rank(std::move(gaps), p);
}

std::uint64_t BatchStats::total_preemptions() const {
  std::uint64_t n = 0;
  for (const RequestStats& r : per_request) n += r.preemptions;
  return n;
}

Cycle BatchStats::total_queue_wait() const {
  Cycle n = 0;
  for (const RequestStats& r : per_request) n += r.queued_cycles;
  return n;
}

std::uint64_t BatchStats::total_swapped_blocks() const {
  std::uint64_t n = 0;
  for (const RequestStats& r : per_request) n += r.swapped_blocks;
  return n;
}

std::uint64_t BatchStats::total_refetch_bytes() const {
  std::uint64_t n = 0;
  for (const RequestStats& r : per_request) n += r.refetch_bytes;
  return n;
}

Cycle BatchStats::total_refetch_cycles() const {
  Cycle n = 0;
  for (const RequestStats& r : per_request) n += r.refetch_cycles;
  return n;
}

void BatchStats::print(std::ostream& os) const {
  os << "mode: " << to_string(mode) << "\n";
  os << std::left << std::setw(10) << "request" << std::setw(10) << "seq_len"
     << std::setw(14) << "cycles" << std::setw(16) << "tokens/cycle";
  if (mode == ExecutionMode::kContinuous) {
    os << std::setw(10) << "arrival" << std::setw(10) << "admit"
       << std::setw(12) << "finish" << std::setw(12) << "latency"
       << std::setw(10) << "wait" << std::setw(9) << "preempt";
    if (paged) {
      os << std::setw(9) << "swap" << std::setw(12) << "refetch_b"
         << std::setw(12) << "refetch_c";
    }
    if (shared) {
      os << std::setw(9) << "pfx_hit" << std::setw(12) << "pfx_bytes";
    }
    os << std::setw(10) << "dram_rd" << std::setw(10) << "l2_hit";
  } else if (mode == ExecutionMode::kCoScheduled) {
    os << std::setw(12) << "in_flight" << std::setw(10) << "dram_rd"
       << std::setw(10) << "dram_wr" << std::setw(10) << "l2_hit";
  }
  os << "\n";
  for (const RequestStats& r : per_request) {
    os << std::left << std::setw(10) << r.id << std::setw(10) << r.seq_len
       << std::setw(14) << r.stats.cycles << std::scientific
       << std::setprecision(3) << std::setw(16) << r.tokens_per_cycle()
       << std::defaultfloat;
    if (mode == ExecutionMode::kContinuous) {
      os << std::setw(10) << r.arrival_cycle << std::setw(10) << r.admit_cycle
         << std::setw(12) << r.finish_cycle << std::setw(12) << r.latency()
         << std::setw(10) << r.queued_cycles << std::setw(9) << r.preemptions;
      if (paged) {
        os << std::setw(9) << r.swapped_blocks << std::setw(12)
           << r.refetch_bytes << std::setw(12) << r.refetch_cycles;
      }
      if (shared) {
        os << std::setw(9) << r.prefix_hit_blocks << std::setw(12)
           << r.prefix_hit_bytes;
      }
      os << std::setw(10) << r.slice.dram_reads << std::fixed
         << std::setprecision(4) << std::setw(10) << r.slice.l2_hit_rate()
         << std::defaultfloat;
    } else if (mode == ExecutionMode::kCoScheduled) {
      os << std::setw(12) << r.slice.cycles_in_flight << std::setw(10)
         << r.slice.dram_reads << std::setw(10) << r.slice.dram_writes
         << std::fixed << std::setprecision(4) << std::setw(10)
         << r.slice.l2_hit_rate() << std::defaultfloat;
    }
    os << "\n";
  }
  os << "\nbatch totals\n";
  total.print(os, /*include_per_request=*/false);
  if (mode == ExecutionMode::kContinuous) {
    os << "makespan          " << makespan << "\n"
       << "latency_p50       " << latency_percentile(50.0) << "\n"
       << "latency_p99       " << latency_percentile(99.0) << "\n"
       << "ttft_p50          " << ttft_percentile(50.0) << "\n"
       << "ttft_p99          " << ttft_percentile(99.0) << "\n"
       << "tbt_p50           " << tbt_percentile(50.0) << "\n"
       << "tbt_p99           " << tbt_percentile(99.0) << "\n"
       << "queue_wait        " << total_queue_wait() << "\n"
       << "preemptions       " << total_preemptions() << "\n";
    if (paged) {
      os << "swapped_blocks    " << total_swapped_blocks() << "\n"
         << "refetch_bytes     " << total_refetch_bytes() << "\n"
         << "refetch_cycles    " << total_refetch_cycles() << "\n";
    }
    if (shared) {
      os << "kv_lookups        " << kv_block_lookups << "\n"
         << "kv_hits           " << kv_block_hits << "\n"
         << std::fixed << std::setprecision(4) << "kv_hit_rate       "
         << kv_hit_rate() << std::defaultfloat << "\n"
         << "kv_shared_bytes   " << kv_shared_bytes << "\n"
         << "kv_charged_bytes  " << kv_charged_bytes << "\n"
         << std::fixed << std::setprecision(4) << "kv_dedup_ratio    "
         << kv_dedup_ratio() << std::defaultfloat << "\n";
    }
  }
  os << std::scientific << std::setprecision(3) << "tokens/cycle      "
     << tokens_per_cycle() << "\n"
     << std::fixed << std::setprecision(1) << "tokens/s          "
     << tokens_per_cycle() * total.core_hz << "\n"
     << std::defaultfloat;
}

void DecodePassConfig::validate() const {
  if (num_layers == 0) {
    throw std::invalid_argument("DecodePassConfig: num_layers == 0");
  }
  serving.validate();
}

DecodePass::DecodePass(RequestBatch batch, DecodePassConfig pass_cfg,
                       const SimConfig& cfg)
    : batch_(std::move(batch)), pass_cfg_(pass_cfg), cfg_(cfg) {
  pass_cfg_.validate();
  if (pass_cfg_.mode != ExecutionMode::kContinuous) {
    for (const RequestSpec& req : batch_.requests()) {
      if (req.arrival_cycle != 0) {
        throw std::invalid_argument(
            "DecodePass: arrival cycles require ExecutionMode::kContinuous "
            "(the barrier modes have no notion of mid-pass admission)");
      }
    }
  }
  if ((!pass_cfg_.serving.unconditional() || pass_cfg_.serving.kv_share) &&
      pass_cfg_.mode != ExecutionMode::kContinuous) {
    throw std::invalid_argument(
        "DecodePass: the serving-policy layer (admission policy, KV budget, "
        "preemption, prefix sharing) requires ExecutionMode::kContinuous - "
        "the barrier modes have no serving queue or block pool");
  }
  if (const std::uint64_t budget = pass_cfg_.serving.kv_budget_bytes;
      budget != 0) {
    for (const RequestSpec& req : batch_.requests()) {
      const std::uint64_t peak =
          batch_.peak_kv_bytes(req, pass_cfg_.num_layers);
      if (peak > budget) {
        throw std::invalid_argument(
            "DecodePass: request " + std::to_string(req.id) +
            " alone peaks at " + std::to_string(peak) +
            " KV bytes across " + std::to_string(pass_cfg_.num_layers) +
            " layers, exceeding the " + std::to_string(budget) +
            "-byte KV budget - no admission order can ever serve it");
      }
    }
  }
  const ModelShape& m = batch_.model();
  const std::uint64_t model_width =
      static_cast<std::uint64_t>(m.num_kv_heads) * m.group_size * m.head_dim;
  const std::uint64_t gemv_rows =
      pass_cfg_.gemv_rows ? pass_cfg_.gemv_rows : model_width;
  const std::uint32_t gemv_cols =
      pass_cfg_.gemv_cols ? pass_cfg_.gemv_cols
                          : static_cast<std::uint32_t>(model_width);

  const std::uint32_t stages_per_layer = pass_cfg_.include_gemv ? 3u : 2u;
  std::size_t total_ops = 0;
  for (const RequestSpec& req : batch_.requests()) {
    total_ops += static_cast<std::size_t>(req.decode_steps) *
                 pass_cfg_.num_layers * stages_per_layer;
  }
  schedule_.reserve(total_ops);
  std::uint64_t req_pos = 0;
  for (const RequestSpec& req : batch_.requests()) {
    for (std::uint32_t step = 0; step < req.decode_steps; ++step) {
      // Decode step s extends a KV cache the previous steps grew to
      // seq_len + s tokens (line-granule rounded - block-granular KV
      // allocation), reusing the request's per-layer address slot so the
      // resident KV lines stay hot across steps. kv_tokens_at_step is the
      // single source of truth, shared with the budget's peak accounting.
      const std::uint64_t step_seq = batch_.kv_tokens_at_step(req, step);
      for (std::uint32_t layer = 0; layer < pass_cfg_.num_layers; ++layer) {
        const std::uint64_t slot = req_pos * pass_cfg_.num_layers + layer;
        auto push = [&](StageKind stage, OperatorSpec spec) {
          ScheduledOp op;
          op.request_id = req.id;
          op.step = step;
          op.layer = layer;
          op.stage = stage;
          op.name = "req" + std::to_string(req.id);
          if (step > 0) {
            op.name += "/s";
            op.name += std::to_string(step);
          }
          op.name += "/L";
          op.name += std::to_string(layer);
          op.name += "/";
          op.name += to_string(stage);
          op.workload = Workload::from_spec(
              shift_to_slot(std::move(spec), slot), cfg_);
          schedule_.push_back(std::move(op));
        };
        push(StageKind::kLogit, OperatorSpec::logit(m, step_seq));
        push(StageKind::kAttend, OperatorSpec::attend(m, step_seq));
        if (pass_cfg_.include_gemv) {
          push(StageKind::kGemv, OperatorSpec::gemv(gemv_rows, gemv_cols));
        }
      }
    }
    ++req_pos;
  }
}

BatchStats DecodePass::run(std::size_t threads, bool verbose) const {
  switch (pass_cfg_.mode) {
    case ExecutionMode::kCoScheduled: return run_coscheduled(verbose);
    case ExecutionMode::kContinuous: return run_continuous(verbose);
    case ExecutionMode::kIndependent: break;
  }
  return run_independent(threads, verbose);
}

namespace {

/// id -> per_request index for O(1) per-request aggregation (the batches
/// here are small, but passes with many decode steps fold thousands of
/// per-op results).
std::unordered_map<std::uint32_t, std::size_t> request_index_map(
    const std::vector<RequestStats>& per_request) {
  std::unordered_map<std::uint32_t, std::size_t> map;
  map.reserve(per_request.size());
  for (std::size_t i = 0; i < per_request.size(); ++i) {
    if (!map.emplace(per_request[i].id, i).second) {
      // RequestBatch's constructor rejects duplicate ids, so this only
      // fires if a caller bypassed it - last-writer-wins would silently
      // misattribute every per-request stat, so fail loudly instead.
      throw std::logic_error("request_index_map: duplicate request id " +
                             std::to_string(per_request[i].id));
    }
  }
  return map;
}

/// Recomputes a fused-run request's derived stats from its accumulated
/// slice. `rs.stats.cycles` (resident time / latency, mode-defined) must
/// already be set. Shared by the co-scheduled and continuous folds.
void finalize_request_stats(RequestStats& rs, double core_hz) {
  rs.stats.core_hz = core_hz;
  rs.stats.instructions = rs.slice.instructions;
  rs.stats.thread_blocks = rs.slice.thread_blocks;
  rs.stats.dram_reads = rs.slice.dram_reads;
  rs.stats.dram_writes = rs.slice.dram_writes;
  rs.stats.counters.set("llc.lookups", rs.slice.llc_lookups);
  rs.stats.counters.set("llc.hits", rs.slice.llc_hits);
  rs.stats.counters.set("llc.misses", rs.slice.llc_misses);
  rs.stats.counters.set("llc.mshr_hits", rs.slice.llc_mshr_hits);
  rs.stats.counters.set("req.cycles_in_flight", rs.slice.cycles_in_flight);
  rs.stats.l2_hit_rate = rs.slice.l2_hit_rate();
  rs.stats.mshr_hit_rate =
      rs.slice.llc_misses
          ? static_cast<double>(rs.slice.llc_mshr_hits) /
                static_cast<double>(rs.slice.llc_misses)
          : 0.0;
  rs.stats.ipc = rs.stats.cycles
                     ? static_cast<double>(rs.stats.instructions) /
                           static_cast<double>(rs.stats.cycles)
                     : 0.0;
}

/// Shifts a shared run's per-request flight landmarks onto the stream
/// timeline at `base`, in place, so both the per-request folds and the
/// batch-total accumulation see stream-time values.
void shift_slices(SimStats& run, Cycle base) {
  for (RequestSlice& sl : run.per_request) {
    if (sl.first_dispatch_cycle != 0) sl.first_dispatch_cycle += base;
    if (sl.last_complete_cycle != 0) sl.last_complete_cycle += base;
  }
}

}  // namespace

BatchStats DecodePass::run_independent(std::size_t threads,
                                       bool verbose) const {
  std::vector<ExperimentSpec> specs;
  specs.reserve(schedule_.size());
  for (const ScheduledOp& op : schedule_) {
    specs.push_back({op.name, cfg_, op.workload});
  }

  BatchStats out;
  out.mode = ExecutionMode::kIndependent;
  out.per_op = run_experiments(specs, threads, verbose);

  out.per_request.reserve(batch_.size());
  for (const RequestSpec& req : batch_.requests()) {
    RequestStats rs;
    rs.id = req.id;
    rs.seq_len = req.seq_len;
    rs.decode_steps = req.decode_steps;
    out.per_request.push_back(rs);
  }
  const auto by_id = request_index_map(out.per_request);
  // Aggregation walks schedule order, so the result is independent of which
  // worker thread finished each simulation first.
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    out.per_request[by_id.at(schedule_[i].request_id)].stats.accumulate(
        out.per_op[i].stats);
    out.total.accumulate(out.per_op[i].stats);
  }
  out.makespan = out.total.cycles;
  return out;
}

BatchStats DecodePass::run_coscheduled(bool verbose) const {
  BatchStats out;
  out.mode = ExecutionMode::kCoScheduled;
  out.per_request.reserve(batch_.size());
  std::uint32_t max_steps = 0;
  for (const RequestSpec& req : batch_.requests()) {
    RequestStats rs;
    rs.id = req.id;
    rs.seq_len = req.seq_len;
    rs.decode_steps = req.decode_steps;
    rs.slice.request_id = req.id;
    out.per_request.push_back(rs);
    max_steps = std::max(max_steps, req.decode_steps);
  }
  const auto by_id = request_index_map(out.per_request);

  // One fused System per step-layer-stage wave: each wave holds the same
  // stage of every request still decoding at that step (stages of one
  // request are dependent, same-stage operators of different requests are
  // not), so co-resident requests contend for the shared LLC while each
  // request's Logit -> Attend -> GEMV chain stays sequential. Every wave is
  // a barrier: the machine drains before the next wave starts.
  std::vector<StageKind> stages{StageKind::kLogit, StageKind::kAttend};
  if (pass_cfg_.include_gemv) stages.push_back(StageKind::kGemv);

  // Bucket the schedule by (step, layer, stage) once - StageKind values
  // match the `stages` order - so wave assembly is linear in the schedule
  // instead of rescanning it per wave.
  const std::size_t nstages = stages.size();
  std::vector<std::vector<std::size_t>> wave_ops(
      static_cast<std::size_t>(max_steps) * pass_cfg_.num_layers * nstages);
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const ScheduledOp& op = schedule_[i];
    wave_ops[(static_cast<std::size_t>(op.step) * pass_cfg_.num_layers +
              op.layer) *
                 nstages +
             static_cast<std::size_t>(op.stage)]
        .push_back(i);
  }

  Cycle base = 0;  // stream cycle where the current wave starts
  std::size_t wave_idx = 0;
  for (std::uint32_t step = 0; step < max_steps; ++step) {
    for (std::uint32_t layer = 0; layer < pass_cfg_.num_layers; ++layer) {
      for (const StageKind stage : stages) {
        CompositeTbSource src(pass_cfg_.interleave);
        for (const std::size_t i : wave_ops[wave_idx++]) {
          const ScheduledOp& op = schedule_[i];
          src.add(op.request_id, op.workload.op, op.workload.mapping);
        }
        std::string name;
        if (max_steps > 1) {
          name += "s";
          name += std::to_string(step);
          name += "/";
        }
        name += "L";
        name += std::to_string(layer);
        name += "/";
        name += to_string(stage);
        name += "x";
        name += std::to_string(src.num_ops());
        if (verbose) std::cerr << "[coscheduled] " << name << "\n";

        System sys(cfg_, src, &src);
        // lint:allow(wallclock): verbose-mode wave wall timing; never feeds sim state
        const auto t0 = std::chrono::steady_clock::now();
        SimStats wave = sys.run();
        const std::chrono::duration<double> dt =
            // lint:allow(wallclock): verbose-mode wave wall timing; never feeds sim state
            std::chrono::steady_clock::now() - t0;

        shift_slices(wave, base);
        for (const RequestSlice& sl : wave.per_request) {
          RequestStats& rs = out.per_request[by_id.at(sl.request_id)];
          rs.slice.accumulate(sl);
          // Resident time: a co-scheduled request occupies the machine for
          // the whole wave, so its latency grows by the wave's duration.
          rs.stats.cycles += wave.cycles;
        }
        base += wave.cycles;
        out.total.accumulate(wave);
        out.per_op.push_back(
            ExperimentResult{name, std::move(wave), dt.count()});
      }
    }
  }
  for (RequestStats& rs : out.per_request) {
    finalize_request_stats(rs, out.total.core_hz);
  }
  out.makespan = out.total.cycles;
  return out;
}

namespace {

// The continuous-batching engine behind ExecutionMode::kContinuous: one
// event-driven state machine over the batch's requests. Each request is in
// exactly one phase (docs/architecture.md draws the transitions):
//
//   pending -> queued -> [refetching ->] ready -> in-flight -> ready -> ...
//                ^                                               |
//                +------------------- preempt -------------------+
//   ... -> in-flight -(last op completes)-> finished
//
// pending: not yet arrived. queued: arrived, waiting for its first
// admission or re-queued by a preemption. refetching: admitted (its KV
// budget share is pinned again) but its next operator stays out of the
// machine until a host-tier transfer completes at `refetch_ready`. ready:
// admitted, next operator not yet in the machine. in-flight: its current
// operator is in the live machine - only an in-flight request can complete
// an operator. Under AdmitPolicy::kNone every arrival is admitted the cycle
// it enters the queue, which reproduces the raw streaming engine byte for
// byte.
//
// The stream is simulated as a chain of System segments sharing one
// timeline (`base_` = stream cycle where the live segment starts). While
// two or more requests overlap, one segment hosts them all: the admission
// hook enqueues a request's next operator the moment its previous one
// completes and admits arrivals mid-flight, so the machine never drains. A
// request *alone* in the machine instead hands off at the drain boundary:
// the segment ends and its next operator starts in a fresh System - exactly
// a one-request co-scheduled wave, which is what makes the zero-arrival
// batch-of-one reproduce kCoScheduled bit for bit.
//
// The engine's state changes only at events: a thread-block completion, an
// arrival or a refetch completion (both published as the System's wake
// hint), and the segment boundaries - so System::run only calls the hook
// there.
class ServingEngine {
 public:
  ServingEngine(const RequestBatch& batch, const DecodePassConfig& pass_cfg,
                const SimConfig& cfg, const std::vector<ScheduledOp>& schedule);

  BatchStats run(bool verbose);

 private:
  enum class Phase : std::uint8_t {
    kPending,
    kQueued,
    kRefetching,
    kReady,
    kInFlight,
    kFinished,
  };
  struct Request {
    Phase phase = Phase::kPending;
    // Operator chain in schedule order (step-major, then layer, then
    // Logit -> Attend [-> GEMV]) and the next op to enqueue.
    std::vector<std::size_t> chain;
    std::size_t cursor = 0;
    bool admitted_ever = false;  // first admission happened (KV resident)
    Cycle queue_enter = 0;       // stream cycle it entered the queue
    Cycle refetch_ready = 0;     // end of the refetch hold (kRefetching)
    // Live segment: thread blocks committed so far and the dense scheduler
    // index (cached - the completion check must be plain array reads).
    std::uint64_t seg_enq = 0;
    std::uint32_t dense = kNoRequest;
  };

  // -- queries ----------------------------------------------------------------
  /// Holds the machine (or its budget share): refetching, ready, in flight.
  [[nodiscard]] bool running(std::size_t i) const;
  [[nodiscard]] std::size_t num_running() const;
  /// Remaining service-demand estimate: remaining chain operators weighted
  /// by the request's peak KV tokens (longer contexts, longer operators).
  [[nodiscard]] std::uint64_t remaining_work(std::size_t i) const;
  [[nodiscard]] std::uint64_t admit_bytes(std::size_t i) const;
  [[nodiscard]] std::vector<std::uint64_t> running_work(
      std::size_t except) const;
  [[nodiscard]] std::vector<std::uint64_t> eviction_pressure_on(
      std::size_t i) const;
  /// Earliest arrival or refetch completion strictly after `after`
  /// (kNeverCycle when none is pending).
  [[nodiscard]] Cycle next_landmark(Cycle after) const;

  // -- transitions ------------------------------------------------------------
  bool on_arrivals(Cycle now);
  std::size_t admit_sweep(Cycle now);
  void admit(std::size_t i, Cycle now);
  void enqueue_ready(Cycle now);
  void enqueue(std::size_t i);
  std::size_t commit(System* sys);
  void op_complete(std::size_t i, Cycle now);
  void preempt(std::size_t i, Cycle now);
  void finish(std::size_t i, Cycle now);

  // -- segment driver ---------------------------------------------------------
  std::size_t start_segment();
  void on_hook(System& sys, Cycle now);

  const RequestBatch& batch_;
  const std::vector<RequestSpec>& reqs_;
  const DecodePassConfig& pass_cfg_;
  const SimConfig& cfg_;
  const std::vector<ScheduledOp>& schedule_;
  const AdmissionPolicy policy_;
  const bool paged_;

  BatchStats out_;
  std::unordered_map<std::uint32_t, std::size_t> by_id_;
  std::vector<Request> req_;
  std::vector<std::uint64_t> peak_bytes_;
  // KV bytes pinned by admitted, unfinished requests. Under kv_evict=none a
  // preempted request keeps its full peak pinned; under cold-blocks its
  // swapped blocks leave this ledger until the resume refetch re-pins them.
  std::uint64_t resident_bytes_ = 0;
  // Shared KV block pool (kv_block_pool.hpp): instantiated whenever paged
  // eviction or prefix sharing is on. With sharing off every layout is
  // private and the pool's charges, frees and refetch prices reproduce the
  // per-request pager byte for byte.
  std::optional<KvBlockPool> pool_;
  // In-engine ledger auditor (invariants.hpp): every transition reports
  // itself, so a KV-conservation break throws on the cycle it happens.
  std::optional<ServingAuditor> auditor_;

  Cycle base_ = 0;
  std::optional<DynamicTbSource> src_;  // the live segment's source
  std::vector<std::size_t> touched_;    // enqueued, not yet committed
};

ServingEngine::ServingEngine(const RequestBatch& batch,
                             const DecodePassConfig& pass_cfg,
                             const SimConfig& cfg,
                             const std::vector<ScheduledOp>& schedule)
    : batch_(batch),
      reqs_(batch.requests()),
      pass_cfg_(pass_cfg),
      cfg_(cfg),
      schedule_(schedule),
      policy_(pass_cfg.serving),
      paged_(pass_cfg.serving.paged()),
      req_(reqs_.size()),
      peak_bytes_(reqs_.size()) {
  out_.mode = ExecutionMode::kContinuous;
  out_.per_request.reserve(reqs_.size());
  for (const RequestSpec& r : reqs_) {
    RequestStats rs;
    rs.id = r.id;
    rs.seq_len = r.seq_len;
    rs.decode_steps = r.decode_steps;
    rs.streamed = true;
    rs.arrival_cycle = r.arrival_cycle;
    rs.slice.request_id = r.id;
    out_.per_request.push_back(rs);
  }
  by_id_ = request_index_map(out_.per_request);
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    req_[by_id_.at(schedule_[i].request_id)].chain.push_back(i);
  }
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    peak_bytes_[i] = batch_.peak_kv_bytes(reqs_[i], pass_cfg_.num_layers);
  }

  // With sharing on, requests in a prefix group pin their common leading
  // blocks once.
  const bool share = pass_cfg_.serving.kv_share;
  bool any_group = false;
  if (share || paged_) {
    KvBlockPoolConfig pool_cfg;
    pool_cfg.block_bytes = pass_cfg_.serving.kv_block_bytes != 0
                               ? pass_cfg_.serving.kv_block_bytes
                               : kLineBytes;
    pool_cfg.refetch_cost = pass_cfg_.serving.refetch_cost;
    std::vector<KvBlockPool::RequestLayout> layouts(reqs_.size());
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      layouts[i].footprint_bytes = peak_bytes_[i];
      if (share && reqs_[i].prefix_group != kNoPrefixGroup) {
        layouts[i].prefix_group = reqs_[i].prefix_group;
        layouts[i].prefix_bytes =
            batch_.prefix_kv_bytes(reqs_[i], pass_cfg_.num_layers);
        any_group = true;
      }
    }
    pool_.emplace(pool_cfg, std::move(layouts));
  }
  out_.paged = paged_;
  out_.shared = share;

  // The auditor is off by default - it adds no stats and changes no
  // behavior. When any request actually shares a prefix it replays the
  // block-level lifecycle through its own shadow map (shared-byte
  // conservation); otherwise the per-request shadow ledger applies.
  const char* audit_env = std::getenv("LLAMCAT_AUDIT");
  if (!pass_cfg_.audit && (audit_env == nullptr || *audit_env == '\0' ||
                           *audit_env == '0')) {
    return;
  }
  if (any_group) {
    ServingAuditor::SharedLayout layout;
    layout.block_bytes = pool_->config().block_bytes;
    layout.paged = paged_;
    layout.groups.resize(reqs_.size(), kNoPrefixGroup);
    layout.prefix_bytes.resize(reqs_.size(), 0);
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (reqs_[i].prefix_group != kNoPrefixGroup) {
        layout.groups[i] = reqs_[i].prefix_group;
        layout.prefix_bytes[i] =
            batch_.prefix_kv_bytes(reqs_[i], pass_cfg_.num_layers);
      }
    }
    auditor_.emplace(pass_cfg_.serving.kv_budget_bytes, peak_bytes_,
                     std::move(layout));
  } else {
    auditor_.emplace(pass_cfg_.serving.kv_budget_bytes, peak_bytes_,
                     pool_ ? pool_->config().block_bytes : 0);
  }
}

bool ServingEngine::running(std::size_t i) const {
  const Phase p = req_[i].phase;
  return p == Phase::kRefetching || p == Phase::kReady ||
         p == Phase::kInFlight;
}

std::size_t ServingEngine::num_running() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < req_.size(); ++i) n += running(i) ? 1 : 0;
  return n;
}

std::uint64_t ServingEngine::remaining_work(std::size_t i) const {
  return (req_[i].chain.size() - req_[i].cursor) *
         batch_.peak_kv_tokens(reqs_[i]);
}

// Bytes an admission of request i would newly pin: its effective
// (dedup-aware) footprint on first admission - the full peak unless a
// prefix peer already charged shared blocks - the swapped-out share on a
// paged resume, 0 for a resident (non-evicted) preempted request. Pool
// estimates are conservative upper bounds: between a sweep's estimate and
// the admission, shared blocks can only get cheaper (a peer admitted
// first), so the budget gate never over-admits.
std::uint64_t ServingEngine::admit_bytes(std::size_t i) const {
  if (!req_[i].admitted_ever) {
    return pool_ ? pool_->admit_cost(i) : peak_bytes_[i];
  }
  return (pool_ && paged_) ? pool_->resume_cost(i) : 0;
}

// A running request's demand adds one operator's worth for the one in
// flight (the cursor already advanced past it): a request mid-way through
// its last operator still holds the machine for that operator's length, so
// yield checks must not read it as "zero remaining" and preempt a genuinely
// shorter neighbor in its favor.
std::vector<std::uint64_t> ServingEngine::running_work(
    std::size_t except) const {
  std::vector<std::uint64_t> w;
  for (std::size_t j = 0; j < req_.size(); ++j) {
    if (j != except && running(j)) {
      w.push_back(remaining_work(j) + batch_.peak_kv_tokens(reqs_[j]));
    }
  }
  return w;
}

// Paged mode: remaining work of the queued candidates the free budget
// cannot hold. They exert preemption pressure (should_preempt's
// blocked_work) - evicting a much-longer runner's cold blocks is what
// unblocks them - but only on a victim whose eviction would actually free
// bytes: with no evictable whole block (block larger than the footprint, or
// everything already out) the preemption would be pure churn.
std::vector<std::uint64_t> ServingEngine::eviction_pressure_on(
    std::size_t i) const {
  std::vector<std::uint64_t> w;
  if (!paged_ || pool_->releasable_blocks(i) == 0) return w;
  const std::uint64_t budget = pass_cfg_.serving.kv_budget_bytes;
  for (std::size_t j = 0; j < req_.size(); ++j) {
    if (req_[j].phase == Phase::kQueued &&
        resident_bytes_ + admit_bytes(j) > budget) {
      w.push_back(remaining_work(j));
    }
  }
  return w;
}

Cycle ServingEngine::next_landmark(Cycle after) const {
  Cycle next = kNeverCycle;
  for (std::size_t i = 0; i < req_.size(); ++i) {
    if (req_[i].phase == Phase::kPending && reqs_[i].arrival_cycle > after) {
      next = std::min(next, reqs_[i].arrival_cycle);
    }
    if (req_[i].phase == Phase::kRefetching && req_[i].refetch_ready > after) {
      next = std::min(next, req_[i].refetch_ready);
    }
  }
  return next;
}

// Arrivals whose clock has struck enter the serving queue.
bool ServingEngine::on_arrivals(Cycle now) {
  bool any = false;
  for (std::size_t i = 0; i < req_.size(); ++i) {
    if (req_[i].phase == Phase::kPending && reqs_[i].arrival_cycle <= now) {
      req_[i].phase = Phase::kQueued;
      req_[i].queue_enter = now;
      any = true;
    }
  }
  return any;
}

// The policy picks admissions from the queue; a pick whose KV is resident
// enqueues its next operator at once, a paged resume waits out its refetch
// (enqueue_ready releases it when due). Returns the number admitted.
std::size_t ServingEngine::admit_sweep(Cycle now) {
  std::vector<AdmissionPolicy::Candidate> q;
  for (std::size_t i = 0; i < req_.size(); ++i) {
    if (req_[i].phase == Phase::kQueued) {
      q.push_back({i, reqs_[i].arrival_cycle, remaining_work(i),
                   admit_bytes(i)});
    }
  }
  if (q.empty()) return 0;
  std::vector<std::size_t> picks =
      policy_.select(std::move(q), running_work(req_.size()), resident_bytes_);
  std::sort(picks.begin(), picks.end());
  for (const std::size_t i : picks) {
    admit(i, now);
    if (req_[i].phase == Phase::kReady) enqueue(i);
  }
  return picks.size();
}

// First admissions pin the request's (deduped) peak KV against the budget
// and stamp the admit landmark; a resume re-pins its swapped blocks. Either
// may refetch host-tier blocks (a prefix peer may have released a shared
// block to the host tier), which holds the request in kRefetching. Every
// admission closes out a queue-wait interval.
void ServingEngine::admit(std::size_t i, Cycle now) {
  Request& r = req_[i];
  RequestStats& rs = out_.per_request[i];
  rs.queued_cycles += now - r.queue_enter;
  KvBlockPool::Admission a;
  if (!r.admitted_ever) {
    r.admitted_ever = true;
    rs.admit_cycle = now;
    if (pool_) {
      a = pool_->admit(i);
      rs.prefix_hit_blocks += a.hit_blocks;
      rs.prefix_hit_bytes += a.hit_bytes;
    } else {
      a.charged_bytes = peak_bytes_[i];
    }
    resident_bytes_ += a.charged_bytes;
    if (auditor_) auditor_->on_admit(i, now, resident_bytes_);
  } else {
    if (pool_ && paged_) a = pool_->resume(i);
    resident_bytes_ += a.charged_bytes;
    if (auditor_) {
      auditor_->on_resume(i, a.charged_bytes, now, resident_bytes_);
    }
  }
  r.phase = Phase::kReady;
  if (a.refetch_blocks != 0) {
    rs.refetch_bytes += a.refetch_bytes;
    rs.refetch_cycles += a.refetch_cycles;
    r.phase = Phase::kRefetching;
    r.refetch_ready = now + a.refetch_cycles;
  }
}

// Ready requests, and refetching ones whose hold has expired, enter the
// machine in request-index order.
void ServingEngine::enqueue_ready(Cycle now) {
  for (std::size_t i = 0; i < req_.size(); ++i) {
    Request& r = req_[i];
    if (r.phase == Phase::kRefetching && r.refetch_ready <= now) {
      r.phase = Phase::kReady;
    }
    if (r.phase == Phase::kReady) enqueue(i);
  }
}

void ServingEngine::enqueue(std::size_t i) {
  ++req_[i].cursor;
  req_[i].phase = Phase::kInFlight;
  touched_.push_back(i);
}

// Stages the operators enqueued since the last commit in request-index
// order (the policy decides WHO starts; index order keeps the TB fuse order
// identical to the raw engine's under kNone), appends their thread blocks
// to the live source and - once the segment's System exists - publishes
// them to it. Returns the number of operators committed.
std::size_t ServingEngine::commit(System* sys) {
  if (touched_.empty()) return 0;
  std::sort(touched_.begin(), touched_.end());
  for (const std::size_t i : touched_) {
    const ScheduledOp& op = schedule_[req_[i].chain[req_[i].cursor - 1]];
    src_->add(op.request_id, op.workload.op, op.workload.mapping);
  }
  src_->commit(pass_cfg_.interleave);
  if (sys != nullptr) sys->inject_work();
  for (const std::size_t i : touched_) {
    req_[i].seg_enq = src_->tbs_of_request(reqs_[i].id);
  }
  const std::size_t n = touched_.size();
  touched_.clear();
  return n;
}

// The in-flight operator (at cursor-1) completed. If it closes a decode
// step, stamp the step-finish landmark (the TBT clock) now, before the
// caller's advance/preempt/finish decision: a preempted request's completed
// operator still ended its step at this cycle.
void ServingEngine::op_complete(std::size_t i, Cycle now) {
  Request& r = req_[i];
  const ScheduledOp& done = schedule_[r.chain[r.cursor - 1]];
  if (r.cursor == r.chain.size() ||
      schedule_[r.chain[r.cursor]].step != done.step) {
    out_.per_request[i].step_finish_cycles.push_back(now);
  }
  r.phase = Phase::kReady;
}

// The request leaves the machine and re-enters the serving queue; in paged
// mode its cold blocks swap out, freeing budget bytes. Refcounted eviction:
// only blocks whose last pinner this was swap out - a shared block a peer
// still runs against stays resident and charged, so `freed` can be less
// than the whole-block footprint.
void ServingEngine::preempt(std::size_t i, Cycle now) {
  req_[i].phase = Phase::kQueued;
  req_[i].queue_enter = now;
  ++out_.per_request[i].preemptions;
  std::uint64_t freed = 0;
  if (pool_ && paged_) {
    freed = pool_->release(i);
    resident_bytes_ -= freed;
    out_.per_request[i].swapped_blocks += freed / pool_->config().block_bytes;
  }
  if (auditor_) auditor_->on_evict(i, freed, now, resident_bytes_);
}

// A finish unrefs instead of freeing: shared blocks a peer still holds stay
// resident and charged, so the pool's freed bytes can be less than the peak
// footprint.
void ServingEngine::finish(std::size_t i, Cycle now) {
  req_[i].phase = Phase::kFinished;
  out_.per_request[i].finish_cycle = now;
  resident_bytes_ -= pool_ ? pool_->finish(i) : peak_bytes_[i];
  if (auditor_) auditor_->on_finish(i, now, resident_bytes_);
  src_->retire_request(reqs_[i].id);
}

// Assembles the segment start at base_ and commits it; returns the number
// of operators it starts with. Outside paged mode one pass always enqueues
// something; with paging the pass can come up empty (every resident request
// mid-refetch), in which case the stream clock hops to the next landmark - a
// refetch completion or an arrival - and retries.
std::size_t ServingEngine::start_segment() {
  for (;;) {
    on_arrivals(base_);
    // Drain-boundary eviction sweep (paged mode): a carried-over request
    // yields its stage boundary - and its cold blocks' budget bytes - to
    // much-shorter pressure before re-enqueueing. This is where a LONE long
    // request is evicted in favor of a budget-blocked short arrival
    // (mid-flight stage boundaries take the hook's preemption path; a lone
    // request's boundary IS the drain).
    if (paged_ && policy_.config().preempt) {
      for (std::size_t i = 0; i < req_.size(); ++i) {
        if (req_[i].phase == Phase::kReady &&
            policy_.should_preempt(remaining_work(i), running_work(i),
                                   eviction_pressure_on(i))) {
          preempt(i, base_);
        }
      }
    }
    // Nothing running and nothing admitted: the queue is empty (the policy
    // guarantees progress on an idle machine), so the machine idles until
    // the next arrival - skip the dead cycles but keep them on the stream
    // clock. Unfinished requests imply a pending arrival exists.
    if (admit_sweep(base_) == 0 && num_running() == 0) {
      base_ = next_landmark(base_);
      on_arrivals(base_);
      admit_sweep(base_);
    }
    // Requests continuing from the previous segment join this sweep's
    // admissions.
    enqueue_ready(base_);
    if (!touched_.empty()) return commit(nullptr);
    // Nothing entered the machine: everyone resident is paying a refetch
    // (the machine idles on the host link).
    base_ = next_landmark(base_);
  }
}

void ServingEngine::on_hook(System& sys, Cycle now) {
  const Cycle global = base_ + now;
  // 1) Arrivals enter the serving queue mid-flight; the policy admits
  // whoever fits into the live machine (all of them under kNone).
  if (on_arrivals(global)) admit_sweep(global);
  commit(&sys);
  // 2) Requests whose refetch transfer just completed (paged resumes, or
  // first admissions that refetched a peer-released shared block) enter
  // the machine.
  enqueue_ready(global);
  commit(&sys);
  // 3) Stage handoff. A request whose in-flight operator completed advances
  // (or finishes) eagerly as long as it has company - any other running
  // request keeps the machine live, so the stream never drains
  // (simultaneous completions included: the tied requests advance together
  // rather than forcing a barrier). A request alone in the machine hands
  // off at the drain boundary instead (see run()). With preemption enabled,
  // a request due to advance instead yields its stage boundary to a
  // much-shorter co-running request.
  if (num_running() >= 2) {
    bool freed = false;
    for (std::size_t i = 0; i < req_.size(); ++i) {
      Request& r = req_[i];
      if (r.phase != Phase::kInFlight) continue;
      if (r.dense == kNoRequest) {
        r.dense = sys.scheduler().dense_index_of(reqs_[i].id);
        if (r.dense == kNoRequest) continue;
      }
      if (sys.scheduler().completed_of(r.dense) != r.seg_enq) continue;
      op_complete(i, global);
      if (r.cursor == r.chain.size()) {
        finish(i, global);
        freed = true;
      } else if (policy_.config().preempt &&
                 policy_.should_preempt(remaining_work(i), running_work(i),
                                        eviction_pressure_on(i))) {
        preempt(i, global);
        freed = true;
      } else {
        enqueue(i);
      }
    }
    commit(&sys);
    // 4) A finish freed budget (or a preemption freed the machine):
    // someone in the queue may be admittable now.
    if (freed) {
      admit_sweep(global);
      commit(&sys);
    }
  }
  const Cycle next = next_landmark(global);
  sys.set_wake_hint(next == kNeverCycle ? kNeverCycle : next - base_);
}

BatchStats ServingEngine::run(bool verbose) {
  std::size_t seg_id = 0;
  const auto unfinished = [this] {
    return std::any_of(req_.begin(), req_.end(), [](const Request& r) {
      return r.phase != Phase::kFinished;
    });
  };
  while (unfinished()) {
    src_.emplace();
    for (Request& r : req_) r.dense = kNoRequest;
    const std::size_t started = start_segment();
    System sys(cfg_, *src_, &*src_);
    if (verbose) {
      std::cerr << "[continuous] segment " << seg_id << " @" << base_ << ": "
                << started << " request(s)\n";
    }
    // lint:allow(wallclock): verbose-mode segment wall timing; never feeds sim state
    const auto t0 = std::chrono::steady_clock::now();
    SimStats seg =
        sys.run([this](System& s, Cycle now) { on_hook(s, now); });
    const std::chrono::duration<double> dt =
        // lint:allow(wallclock): verbose-mode segment wall timing; never feeds sim state
        std::chrono::steady_clock::now() - t0;

    // Drain boundary: every in-flight operator has completed. Its step (if
    // it closes one) ends at the segment boundary; a request that ran out
    // of chain finishes here, with the drain included in its latency (its
    // final stage ends exactly like a one-request wave). Refetching
    // requests carry over untouched.
    const Cycle end = base_ + seg.cycles;
    for (std::size_t i = 0; i < req_.size(); ++i) {
      if (req_[i].phase != Phase::kInFlight) continue;
      op_complete(i, end);
      if (req_[i].cursor == req_[i].chain.size()) finish(i, end);
    }
    shift_slices(seg, base_);
    for (const RequestSlice& sl : seg.per_request) {
      out_.per_request[by_id_.at(sl.request_id)].slice.accumulate(sl);
    }
    out_.total.accumulate(seg);
    out_.per_op.push_back(ExperimentResult{
        "seg" + std::to_string(seg_id) + "@" + std::to_string(base_),
        std::move(seg), dt.count()});
    base_ = end;
    ++seg_id;
  }

  if (auditor_) auditor_->on_pass_end();
  out_.makespan = base_;
  if (out_.shared) {
    out_.kv_block_lookups = pool_->total_lookups();
    out_.kv_block_hits = pool_->total_hits();
    out_.kv_shared_bytes = pool_->total_shared_bytes();
    out_.kv_charged_bytes = pool_->total_charged_bytes();
    out_.kv_logical_bytes = pool_->total_logical_bytes();
  }
  for (RequestStats& rs : out_.per_request) {
    // True per-request latency: finish minus arrival, queueing included.
    rs.stats.cycles = rs.latency();
    finalize_request_stats(rs, out_.total.core_hz);
    rs.stats.counters.set("req.queue_wait", rs.queued_cycles);
    rs.stats.counters.set("req.preemptions", rs.preemptions);
    if (out_.paged) {
      rs.stats.counters.set("req.swapped_blocks", rs.swapped_blocks);
      rs.stats.counters.set("req.refetch_bytes", rs.refetch_bytes);
      rs.stats.counters.set("req.refetch_cycles", rs.refetch_cycles);
    }
    if (out_.shared) {
      rs.stats.counters.set("req.prefix_hit_blocks", rs.prefix_hit_blocks);
      rs.stats.counters.set("req.prefix_hit_bytes", rs.prefix_hit_bytes);
    }
  }
  return std::move(out_);
}

}  // namespace

BatchStats DecodePass::run_continuous(bool verbose) const {
  return ServingEngine(batch_, pass_cfg_, cfg_, schedule_).run(verbose);
}

}  // namespace llamcat::scenario
