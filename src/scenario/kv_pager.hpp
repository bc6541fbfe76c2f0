// Paged KV model for the serving-policy layer: each request's peak KV
// footprint is split into fixed-size blocks, and the pager tracks which of
// those blocks are resident in the simulated LLC+DRAM tier versus swapped
// out to a modeled DRAM/host tier (the swap/reload regime of vLLM-style
// paged attention and LMCache-style KV offload).
//
// The pager is pure bookkeeping: it owns no simulated memory and injects no
// traffic itself. The continuous engine (scenario.cpp) consults it at the
// two points where paging changes the serving state machine:
//
//  - preemption: `evict_cold` swaps the preempted request's cold blocks out
//    and reports how many budget bytes that frees (the engine subtracts
//    them from its resident-bytes ledger, which is what lets a blocked
//    arrival admit without waiting for the preempted request to finish);
//  - resume: `refetch` moves the swapped blocks back, reports the bytes
//    moved, and prices the transfer in core cycles (`refetch_cycles`); the
//    engine holds the request's next operator back for that long, modeling
//    the host-link transfer the first-cut flat-cost model stands in for.
//
// Cold-block definition (first cut): at a stage-boundary preemption the
// request has no operator in flight, and by the time it resumes its
// co-runners will long since have flushed its lines from the shared LLC -
// so every *whole* block of the detached KV is cold and swappable. Only a
// partial tail block (footprint not block-aligned) stays pinned: blocks
// are the transfer and accounting granule, so a fraction of one cannot
// move. Smarter temperature models (keep the resume layer hot, keep the
// tail of the sequence hot) drop into `evict_cold` without touching the
// engine.
//
// See docs/architecture.md ("Paged KV eviction") for how the pager slots
// into the admission/preemption state machine and docs/metrics.md for the
// refetch counters it feeds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace llamcat::scenario {

/// Knobs of the paged KV model. Defaults follow the existing line-granule
/// KV rounding: one block = one 64-byte cache line, priced at the modeled
/// host-link bandwidth.
struct KvPagerConfig {
  /// Fixed KV block size in bytes. Must be a positive multiple of
  /// kLineBytes (KV is line-granular everywhere else in the simulator).
  std::uint64_t block_bytes = kLineBytes;
  /// Core cycles charged per refetched block at resume. 0 derives
  /// block_bytes / 8 (an ~8 B/cycle host link: 16 GB/s at the 1.96 GHz
  /// Table 5 core clock - PCIe-gen4-x16-ish, the LMCache regime).
  Cycle refetch_cost = 0;

  /// The effective per-block refetch price after the 0-default resolves.
  [[nodiscard]] Cycle cycles_per_block() const {
    if (refetch_cost != 0) return refetch_cost;
    const Cycle derived = block_bytes / 8;
    return derived == 0 ? 1 : derived;
  }

  /// Throws std::invalid_argument on a bad block size.
  void validate() const;
};

/// Per-request resident/swapped block bookkeeping. Request indices are the
/// engine's dense indices (0 .. num_requests-1), matching the serving
/// engine's request table.
class KvPager {
 public:
  /// What one resume moved back from the host tier.
  struct Refetch {
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
    Cycle cycles = 0;
  };

  /// `footprints[i]` is request i's peak KV footprint in bytes (the same
  /// peak the admission budget pins). All blocks start resident.
  KvPager(const KvPagerConfig& cfg, std::vector<std::uint64_t> footprints);

  [[nodiscard]] const KvPagerConfig& config() const { return cfg_; }

  /// Total whole blocks of request i's footprint (a partial tail block
  /// does not count: it can never be swapped).
  [[nodiscard]] std::uint64_t total_blocks(std::size_t i) const;
  /// Blocks of request i currently swapped out to the host tier.
  [[nodiscard]] std::uint64_t swapped_blocks(std::size_t i) const {
    return swapped_blocks_[i];
  }
  /// Bytes of request i currently swapped out (what a resume would have to
  /// re-pin against the budget and refetch).
  [[nodiscard]] std::uint64_t swapped_bytes(std::size_t i) const {
    return swapped_blocks_[i] * cfg_.block_bytes;
  }
  /// Whole blocks of request i still resident, i.e. what evict_cold could
  /// swap out right now. 0 when the block size exceeds the footprint (no
  /// whole block exists) or everything is already out - eviction-driven
  /// preemption must not fire for such a victim, since it would free
  /// nothing.
  [[nodiscard]] std::uint64_t evictable_blocks(std::size_t i) const {
    return total_blocks(i) - swapped_blocks_[i];
  }

  /// Swap request i's cold blocks (every whole block - see the header
  /// comment) out to the host tier. Returns the budget bytes freed; 0 when
  /// everything swappable is already out (idempotent).
  std::uint64_t evict_cold(std::size_t i);

  /// Move request i's swapped blocks back to the simulated tier and price
  /// the transfer. Returns {0, 0, 0} when nothing was swapped.
  Refetch refetch(std::size_t i);

  // -- cumulative traffic the pager has moved (for bench/report rows) -------
  [[nodiscard]] std::uint64_t total_swap_out_blocks() const {
    return total_swap_out_blocks_;
  }
  [[nodiscard]] std::uint64_t total_refetch_bytes() const {
    return total_refetch_bytes_;
  }

 private:
  KvPagerConfig cfg_;
  std::vector<std::uint64_t> footprints_;
  std::vector<std::uint64_t> swapped_blocks_;
  std::uint64_t total_swap_out_blocks_ = 0;
  std::uint64_t total_refetch_bytes_ = 0;
};

}  // namespace llamcat::scenario
