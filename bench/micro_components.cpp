// Component microbenchmarks (google-benchmark): throughput of the MSHR,
// the BMA arbiter pick, the L1 miss queue, cache array, DRAM controller,
// trace generator and the full simulator.
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache_array.hpp"
#include "cache/l1_cache.hpp"
#include "cache/mshr.hpp"
#include "common/rng.hpp"
#include "core/arbitration.hpp"
#include "dram/dram_system.hpp"
#include "sim/experiment.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {
namespace {

void BM_MshrAddRelease(benchmark::State& state) {
  Mshr mshr(6, 8);
  std::vector<MshrTarget> targets;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const Addr line = (n++ % 6) * kLineBytes;
    if (mshr.find(line) == nullptr && mshr.entry_available()) {
      mshr.add(line, MshrTarget{0, 0, false}, 0);
    } else if (mshr.find(line) != nullptr) {
      mshr.release(line, targets);
      benchmark::DoNotOptimize(targets.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MshrAddRelease);

// One BMA pick in the paper's LLC slice geometry: a full 12-deep request
// queue classified against a 32-deep hit_buffer, 6 MSHR entries and
// sent_reqs. Each pick replaces the chosen request with a new one.
void BM_ArbiterBmaSelect(benchmark::State& state) {
  ArbConfig cfg;
  cfg.policy = ArbPolicy::kBma;
  cfg.hit_buffer_depth = 32;
  cfg.sent_reqs_depth = 16;
  RequestArbiter arb(cfg, /*num_cores=*/16, /*sent_reqs_lifetime=*/8);
  Mshr mshr(6, 8);
  Xoshiro256 rng(11);
  const auto random_line = [&] { return rng.below(256) * kLineBytes; };
  for (int i = 0; i < 32; ++i) arb.on_hit_determined(random_line());
  for (int i = 0; i < 6; ++i) {
    (void)mshr.add(static_cast<Addr>(1000 + i) * kLineBytes,
                   MshrTarget{0, 0, false}, 0);
  }
  std::vector<QueuedRequest> queue(12);
  for (auto& q : queue) {
    q.req.line_addr = random_line();
    q.req.core = static_cast<CoreId>(rng.below(16));
  }
  Cycle now = 0;
  for (auto _ : state) {
    arb.on_cycle(++now);
    const auto choice = arb.select(queue, mshr);
    benchmark::DoNotOptimize(choice);
    QueuedRequest& picked = queue[choice->index];
    arb.on_selected(picked.req, choice->spec, now);
    if (choice->spec == RequestArbiter::SpecClass::kCacheHit) {
      arb.on_hit_determined(picked.req.line_addr);
    }
    picked.req.line_addr = random_line();
    picked.req.core = static_cast<CoreId>(rng.below(16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_ArbiterBmaSelect);

// L1 miss-queue churn at the default 512-entry queue: a core streaming
// consecutive lines keeps 256 misses outstanding, each iteration issuing
// one new miss and filling the oldest (miss-index insert, lookup and
// backward-shift erase, plus the swap-erase of the miss queue).
void BM_L1MissChurn(benchmark::State& state) {
  const L1Config cfg;
  L1Cache l1(cfg, 0, 1);
  std::vector<L1Cache::LoadTag> woken;
  constexpr std::uint64_t kInFlight = 256;
  std::uint64_t next = 0;
  for (; next < kInFlight; ++next) {
    l1.access_load(next * kLineBytes, next);
    l1.pop_outbox();
  }
  for (auto _ : state) {
    l1.access_load(next * kLineBytes, next);
    l1.pop_outbox();
    l1.on_fill((next - kInFlight) * kLineBytes, woken);
    benchmark::DoNotOptimize(woken.data());
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(next - kInFlight));
}
BENCHMARK(BM_L1MissChurn);

void BM_CacheArrayTouchFill(benchmark::State& state) {
  CacheArray array(4096, 8, ReplPolicy::kLru, InsertPolicy::kMru);
  Xoshiro256 rng(7);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const Addr line = rng.below(1 << 20) * kLineBytes;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_index(line) & 4095);
    if (!array.touch(set, line)) array.fill(set, line, false);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CacheArrayTouchFill);

void BM_DramStreamRead(benchmark::State& state) {
  const SimConfig cfg = SimConfig::table5();
  DramSystem dram(cfg.dram, cfg.core_hz);
  std::uint64_t completed = 0;
  dram.on_read_complete = [&](const DramCompletion&) { ++completed; };
  Addr next = 0;
  for (auto _ : state) {
    const DramRequest r{next, false, 0};
    if (dram.can_accept(r)) {
      dram.enqueue(r);
      next += kLineBytes;
    }
    dram.tick_core_cycle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_DramStreamRead);

void BM_TraceGenInstrAt(benchmark::State& state) {
  const OperatorSpec spec =
      OperatorSpec::logit(ModelShape::llama3_70b(), 4096);
  Mapping m;
  TraceGen gen(spec, m);
  std::uint64_t tb = 0, i = 0, n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.instr_at(tb, static_cast<std::uint32_t>(i)));
    if (++i >= gen.instr_count(tb)) {
      i = 0;
      tb = (tb + 1) % gen.num_tbs();
    }
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceGenInstrAt);

void BM_FullSimSmall(benchmark::State& state) {
  SimConfig cfg = SimConfig::table5();
  cfg.core.num_cores = 4;
  cfg.llc.size_bytes = 1ull << 20;
  cfg.llc.num_slices = 2;
  cfg.dram.num_channels = 2;
  ModelShape m = ModelShape::llama3_70b();
  m.num_kv_heads = 2;
  m.group_size = 4;
  const Workload wl = Workload::logit(m, 128, cfg);
  for (auto _ : state) {
    const SimStats s = run_simulation(cfg, wl);
    benchmark::DoNotOptimize(s.cycles);
  }
}
BENCHMARK(BM_FullSimSmall)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llamcat
