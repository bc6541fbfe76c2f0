#include "core/speculation.hpp"

#include <algorithm>
#include <bit>

namespace llamcat {

SentReqs::SentReqs(std::uint32_t depth, std::uint32_t lifetime)
    : depth_(depth), lifetime_(lifetime) {
  if (depth_ == 0) return;
  // One push per cycle and expiry at the lifetime keep at most lifetime + 1
  // entries live; size for that up front so the steady state never grows.
  ring_.resize(std::bit_ceil(
      static_cast<std::size_t>(std::max(depth_, lifetime_ + 1))));
  mask_ = ring_.size() - 1;
}

void SentReqs::grow() {
  std::vector<Entry> bigger(ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = ring_[(head_ + i) & mask_];
  }
  ring_ = std::move(bigger);
  mask_ = ring_.size() - 1;
  head_ = 0;
}

void SentReqs::push(Addr line_addr, bool spec_hit, Cycle now) {
  if (depth_ == 0) return;
  if (size_ == ring_.size()) grow();
  ring_[(head_ + size_) & mask_] = Entry{line_addr, now, spec_hit};
  ++size_;
}

}  // namespace llamcat
