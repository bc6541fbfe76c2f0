// Open-addressed map from a line address to a small integer (the L1 uses it
// to find a line's slot in its miss queue). Power-of-two table, linear
// probing, backward-shift deletion; sized once, never rehashed, never
// allocates after construction.
//
// Hashing rule: line addresses are 64-byte aligned and the misses of one
// core are mostly consecutive lines, so an identity hash (or the low bits
// of the address) piles them into adjacent slots and probe runs grow long.
// The table takes the top bits of line_hash, the Fibonacci-mixed line
// index.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace llamcat {

class LineIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Holds up to `max_entries` keys at a load factor of at most 1/2.
  explicit LineIndex(std::size_t max_entries)
      : slots_(std::bit_ceil(std::max<std::size_t>(2, 2 * max_entries))),
        mask_(slots_.size() - 1),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// Value stored for `line_addr`, or kNone.
  [[nodiscard]] std::uint32_t find(Addr line_addr) const {
    for (std::size_t i = home_slot(line_addr);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == line_addr) return s.value;
      if (s.key == kEmpty) return kNone;
    }
  }

  /// Precondition: `line_addr` is absent and the table holds fewer than
  /// its `max_entries`.
  void insert(Addr line_addr, std::uint32_t value) {
    assert(line_addr != kEmpty && size_ < slots_.size() / 2);
    std::size_t i = home_slot(line_addr);
    while (slots_[i].key != kEmpty) {
      assert(slots_[i].key != line_addr);
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{line_addr, value};
    ++size_;
  }

  /// Replaces the value of a present key.
  void assign(Addr line_addr, std::uint32_t value) {
    slots_[slot_of(line_addr)].value = value;
  }

  /// Removes a present key. Backward shift: every later entry of the probe
  /// run whose home slot is not in (hole, entry] moves into the hole, so
  /// find() never needs tombstones.
  void erase(Addr line_addr) {
    std::size_t hole = slot_of(line_addr);
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t home = home_slot(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t table_size() const { return slots_.size(); }
  /// First slot probed for `line_addr` (tests build collisions from it).
  [[nodiscard]] std::size_t home_slot(Addr line_addr) const {
    return static_cast<std::size_t>(line_hash(line_addr) >> shift_);
  }

 private:
  static constexpr Addr kEmpty = ~Addr{0};  // never a line-aligned address
  struct Slot {
    Addr key = kEmpty;
    std::uint32_t value = 0;
  };

  /// Slot holding a present key.
  [[nodiscard]] std::size_t slot_of(Addr line_addr) const {
    std::size_t i = home_slot(line_addr);
    while (slots_[i].key != line_addr) {
      assert(slots_[i].key != kEmpty && "key not present");
      i = (i + 1) & mask_;
    }
    return i;
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  int shift_;
  std::size_t size_ = 0;
};

}  // namespace llamcat
