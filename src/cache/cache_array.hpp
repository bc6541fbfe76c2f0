// Tag-only set-associative cache storage with pluggable replacement and
// insertion policies. Data values are not simulated, only presence/dirtiness.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace llamcat {

/// Storage for `num_sets x assoc` lines. The caller supplies the set index
/// (so an LLC slice can use the global-set -> slice interleaving while the
/// L1 uses plain modulo indexing).
class CacheArray {
 public:
  CacheArray(std::uint32_t num_sets, std::uint32_t assoc, ReplPolicy repl,
             InsertPolicy insert, std::uint64_t seed = 1);

  struct Evicted {
    Addr line_addr = 0;
    bool dirty = false;
  };

  /// True if the line is present (no LRU update).
  [[nodiscard]] bool probe(std::uint32_t set, Addr line_addr) const;

  /// Hit path: promotes the line per the replacement policy. Returns false
  /// on miss (no state change).
  bool touch(std::uint32_t set, Addr line_addr);

  /// Installs a line (used on fill). Returns the victim if a valid line was
  /// evicted. Precondition: the line is not already present.
  std::optional<Evicted> fill(std::uint32_t set, Addr line_addr, bool dirty);

  /// Marks an existing line dirty; returns false if absent.
  bool mark_dirty(std::uint32_t set, Addr line_addr);

  /// Removes a line if present (used by invalidation tests).
  bool invalidate(std::uint32_t set, Addr line_addr);

  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }
  [[nodiscard]] std::uint32_t assoc() const { return assoc_; }
  /// Number of valid lines currently stored (O(capacity), for tests).
  [[nodiscard]] std::uint64_t valid_count() const;

  /// Lines of one set in no particular order (for tests).
  [[nodiscard]] std::vector<Addr> set_contents(std::uint32_t set) const;

  /// Re-reference prediction value of a resident line (kSrrip only; tests).
  [[nodiscard]] std::uint8_t rrpv_of(std::uint32_t set, Addr line_addr) const;

 private:
  /// Tag of an empty way; never a line-aligned address.
  static constexpr Addr kInvalid = ~Addr{0};
  /// Replacement state of one way, kept apart from the tags so an 8-way
  /// probe reads one host cache line of tags.
  struct Meta {
    std::uint64_t stamp = 0;  // LRU / FIFO timestamp
    std::uint8_t rrpv = 0;    // kSrrip: 2-bit re-reference prediction
    bool dirty = false;
  };

  [[nodiscard]] std::size_t base_of(std::uint32_t set) const {
    return static_cast<std::size_t>(set) * assoc_;
  }
  /// Global way index (into tags_/meta_) holding the line, or npos.
  [[nodiscard]] std::size_t find(std::uint32_t set, Addr line_addr) const;
  static constexpr std::size_t npos = ~std::size_t{0};
  std::uint32_t victim_way(std::uint32_t set);
  void promote(std::uint32_t set, std::uint32_t way);
  void set_plru_bits(std::uint32_t set, std::uint32_t way);
  std::uint32_t plru_victim(std::uint32_t set) const;

  std::uint32_t num_sets_;
  std::uint32_t assoc_;
  ReplPolicy repl_;
  InsertPolicy insert_;
  std::vector<Addr> tags_;            // num_sets * assoc, kInvalid = empty
  std::vector<Meta> meta_;            // parallel to tags_
  std::vector<std::uint32_t> plru_;   // tree-PLRU bits per set
  std::uint64_t tick_ = 0;            // LRU clock
  Xoshiro256 rng_;
};

}  // namespace llamcat
