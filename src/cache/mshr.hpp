// Miss Status Holding Registers. Two dimensions (paper §2.4): numEntry
// (distinct outstanding line misses) and numTarget (requests merged into one
// entry). Exhaustion of either dimension stalls the owning cache pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "common/types.hpp"

namespace llamcat {

struct MshrTarget {
  CoreId core = 0;
  std::uint32_t req_id = 0;
  bool is_store = false;
};

class Mshr {
 public:
  Mshr(std::uint32_t num_entries, std::uint32_t num_targets);

  struct Entry {
    Addr line_addr = 0;
    std::vector<MshrTarget> targets;
    bool issued_to_dram = false;
    Cycle alloc_cycle = 0;
  };

  enum class AddResult : std::uint8_t {
    kNewEntry,     // allocated a fresh entry (caller must fetch from DRAM)
    kMerged,       // MSHR hit: appended to an existing entry
    kNoEntryFree,  // numEntry exhausted -> pipeline stall
    kNoTargetFree, // numTarget exhausted on the matching entry -> stall
  };

  /// Core operation: find-or-allocate for `line_addr` and attach `target`.
  AddResult add(Addr line_addr, const MshrTarget& target, Cycle now);

  [[nodiscard]] const Entry* find(Addr line_addr) const;
  Entry* find(Addr line_addr);

  /// Fill return: removes the entry and copies its merged targets into
  /// `targets` (cleared first). Entry slots and their target storage are
  /// recycled, so once every slot and `targets` have grown to their
  /// largest merge the fill path allocates nothing. Precondition: the
  /// entry exists.
  void release(Addr line_addr, std::vector<MshrTarget>& targets);

  [[nodiscard]] bool entry_available() const { return live_ < num_entries_; }
  [[nodiscard]] std::size_t occupancy() const { return live_; }
  [[nodiscard]] std::uint32_t capacity() const { return num_entries_; }
  [[nodiscard]] std::uint32_t target_capacity() const { return num_targets_; }

  /// Live view for the arbiter's MSHR_snapshot (paper Fig 5: a direct wire).
  [[nodiscard]] std::span<const Entry> entries() const {
    return {entries_.data(), live_};
  }

  /// Per-cycle stats hook: accumulates numEntry occupancy.
  void sample_occupancy() {
    occ_.add(static_cast<double>(live_) /
             static_cast<double>(num_entries_));
  }

  /// Bulk form for skip-ahead: occupancy is constant across a frozen window,
  /// so `cycles` repeated samples collapse into one call (bit-identical to
  /// the per-cycle loop via add_repeated).
  void sample_occupancy(std::uint64_t cycles) {
    occ_.add_repeated(static_cast<double>(live_) /
                          static_cast<double>(num_entries_),
                      cycles);
  }
  [[nodiscard]] double avg_entry_utilization() const { return occ_.mean(); }

 private:
  std::uint32_t num_entries_;
  std::uint32_t num_targets_;
  // num_entries_ slots; the first live_ hold the outstanding misses in
  // allocation order (linear scan, 6 per slice). Released slots keep their
  // target vectors' capacity for the next allocation.
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  OccupancyAverage occ_;
};

}  // namespace llamcat
