// Hardware structures the arbiter uses to *predict* request outcomes before
// the actual cache/MSHR lookup (paper §4.3.1, Fig 4/5 red items):
//   hit_buffer   - FIFO of recent cache-hit line addresses
//   sent_reqs    - FIFO of requests inside the lookup pipeline; entries
//                  expire after hit_latency + mshr_latency, exactly when the
//                  real MSHR has been updated. The spec_hit bit masks out
//                  requests speculated to be cache hits (MSHR uninvolved).
// MSHR_snapshot is a direct wire to the live MSHR and needs no structure.
//
// Both FIFOs are flat rings searched by a linear scan, like the CAMs they
// model. At the paper's depths (32 and 16 entries) a probe reads a few
// host cache lines, and the rings never allocate once sized.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace llamcat {

/// Bounded FIFO of recent cache-hit lines; the oldest entry is overwritten
/// once `depth` hits are held.
class HitBuffer {
 public:
  explicit HitBuffer(std::uint32_t depth) : ring_(depth) {}

  void record_hit(Addr line_addr) {
    if (ring_.empty()) return;
    ring_[head_] = line_addr;
    if (++head_ == ring_.size()) head_ = 0;
    if (size_ < ring_.size()) ++size_;
  }
  /// Entries fill slots 0..depth-1 before the ring wraps, so the live
  /// entries are always the first size() slots.
  [[nodiscard]] bool contains(Addr line_addr) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (ring_[i] == line_addr) return true;
    }
    return false;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(ring_.size());
  }

 private:
  std::vector<Addr> ring_;  // depth slots
  std::size_t head_ = 0;    // next slot to overwrite
  std::size_t size_ = 0;
};

/// Requests chosen by the arbiter but not yet visible in the MSHR.
class SentReqs {
 public:
  /// `lifetime` = hit_latency + mshr_latency (paper §4.3.1).
  SentReqs(std::uint32_t depth, std::uint32_t lifetime);

  /// Records a selected request. `spec_hit` is its speculated-cache-hit bit.
  void push(Addr line_addr, bool spec_hit, Cycle now);

  /// Drops entries older than the lifetime (call once per cycle).
  void expire(Cycle now) {
    while (size_ > 0 && ring_[head_].pushed_at + lifetime_ <= now) {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
  }

  /// True when the address is tracked by an entry whose spec_hit bit is 0,
  /// i.e. it is expected to appear in the MSHR shortly.
  [[nodiscard]] bool contains_mshr_bound(Addr line_addr) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Entry& e = ring_[(head_ + i) & mask_];
      if (!e.spec_hit && e.line_addr == line_addr) return true;
    }
    return false;
  }

  /// Appends the line of every live entry whose spec_hit bit is 0 to `out`
  /// (the arbiter's per-pick snapshot of MSHR-bound lines).
  void append_mshr_bound(std::vector<Addr>& out) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Entry& e = ring_[(head_ + i) & mask_];
      if (!e.spec_hit) out.push_back(e.line_addr);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }
  [[nodiscard]] std::uint32_t lifetime() const { return lifetime_; }

 private:
  struct Entry {
    Addr line_addr = 0;
    Cycle pushed_at = 0;
    bool spec_hit = false;
  };
  void grow();

  std::uint32_t depth_;
  std::uint32_t lifetime_;
  // Power-of-two ring. A depth of 0 disables tracking. Any other depth
  // tracks every live entry: a config may set the depth below the number
  // of lookups a lifetime holds (the stress tests draw 0..31 against a
  // lifetime of 8), and the ring then grows rather than drop one.
  std::vector<Entry> ring_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  // oldest entry
  std::size_t size_ = 0;
};

}  // namespace llamcat
