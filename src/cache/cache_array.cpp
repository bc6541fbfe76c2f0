#include "cache/cache_array.hpp"

#include <cassert>
#include <limits>

namespace llamcat {

CacheArray::CacheArray(std::uint32_t num_sets, std::uint32_t assoc,
                       ReplPolicy repl, InsertPolicy insert,
                       std::uint64_t seed)
    : num_sets_(num_sets),
      assoc_(assoc),
      repl_(repl),
      insert_(insert),
      tags_(static_cast<std::size_t>(num_sets) * assoc, kInvalid),
      meta_(tags_.size()),
      plru_(num_sets, 0),
      rng_(seed) {
  assert(num_sets_ > 0 && assoc_ > 0);
}

std::size_t CacheArray::find(std::uint32_t set, Addr line_addr) const {
  assert(line_addr != kInvalid);
  const std::size_t base = base_of(set);
  const Addr* tags = &tags_[base];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags[w] == line_addr) return base + w;
  }
  return npos;
}

bool CacheArray::probe(std::uint32_t set, Addr line_addr) const {
  return find(set, line_addr) != npos;
}

void CacheArray::promote(std::uint32_t set, std::uint32_t way) {
  if (repl_ == ReplPolicy::kFifo) return;  // eviction order fixed at insert
  Meta& w = meta_[base_of(set) + way];
  w.stamp = ++tick_;
  w.rrpv = 0;  // SRRIP: re-referenced lines become near-immediate
  if (repl_ == ReplPolicy::kTreePlru) set_plru_bits(set, way);
}

bool CacheArray::touch(std::uint32_t set, Addr line_addr) {
  const std::size_t i = find(set, line_addr);
  if (i == npos) return false;
  promote(set, static_cast<std::uint32_t>(i - base_of(set)));
  return true;
}

void CacheArray::set_plru_bits(std::uint32_t set, std::uint32_t way) {
  // Classic tree-PLRU: walk from root, flip bits to point away from `way`.
  std::uint32_t node = 0;  // index within the implicit tree, 0-based
  std::uint32_t lo = 0, hi = assoc_;
  std::uint32_t& bits = plru_[set];
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool right = way >= mid;
    if (right) {
      bits &= ~(1u << node);  // 0 => next victim on the left
      lo = mid;
      node = 2 * node + 2;
    } else {
      bits |= (1u << node);  // 1 => next victim on the right
      hi = mid;
      node = 2 * node + 1;
    }
  }
}

std::uint32_t CacheArray::plru_victim(std::uint32_t set) const {
  std::uint32_t node = 0;
  std::uint32_t lo = 0, hi = assoc_;
  const std::uint32_t bits = plru_[set];
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool right = (bits >> node) & 1u;
    if (right) {
      lo = mid;
      node = 2 * node + 2;
    } else {
      hi = mid;
      node = 2 * node + 1;
    }
  }
  return lo;
}

std::uint32_t CacheArray::victim_way(std::uint32_t set) {
  const Addr* tags = &tags_[base_of(set)];
  Meta* base = &meta_[base_of(set)];
  // Invalid way first.
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags[w] == kInvalid) return w;
  }
  switch (repl_) {
    case ReplPolicy::kLru: {
      std::uint32_t victim = 0;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].stamp < oldest) {
          oldest = base[w].stamp;
          victim = w;
        }
      }
      return victim;
    }
    case ReplPolicy::kTreePlru:
      return plru_victim(set);
    case ReplPolicy::kRandom:
      return static_cast<std::uint32_t>(rng_.below(assoc_));
    case ReplPolicy::kSrrip: {
      // SRRIP: evict the first way predicted "distant" (RRPV == 3); if
      // none, age every way and retry. Terminates in <= 3 rounds.
      for (;;) {
        for (std::uint32_t w = 0; w < assoc_; ++w) {
          if (base[w].rrpv == 3) return w;
        }
        for (std::uint32_t w = 0; w < assoc_; ++w) {
          if (base[w].rrpv < 3) ++base[w].rrpv;
        }
      }
    }
    case ReplPolicy::kFifo: {
      std::uint32_t victim = 0;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].stamp < oldest) {
          oldest = base[w].stamp;
          victim = w;
        }
      }
      return victim;
    }
  }
  return 0;
}

std::optional<CacheArray::Evicted> CacheArray::fill(std::uint32_t set,
                                                    Addr line_addr,
                                                    bool dirty) {
  assert(!probe(set, line_addr));
  const std::uint32_t w = victim_way(set);
  Addr& tag = tags_[base_of(set) + w];
  Meta& way = meta_[base_of(set) + w];
  std::optional<Evicted> evicted;
  if (tag != kInvalid) evicted = Evicted{tag, way.dirty};
  tag = line_addr;
  way.dirty = dirty;
  if (repl_ == ReplPolicy::kFifo) {
    // FIFO ignores the insertion policy: age is fixed at insertion time.
    way.stamp = ++tick_;
    return evicted;
  }
  if (repl_ == ReplPolicy::kSrrip) {
    // SRRIP insertion: "long" for MRU-style insert, "distant" for
    // streaming (SRRIP-D); stamp kept for deterministic test inspection.
    way.rrpv = insert_ == InsertPolicy::kMru ? 2 : 3;
    way.stamp = insert_ == InsertPolicy::kMru ? ++tick_ : 0;
    return evicted;
  }
  if (insert_ == InsertPolicy::kMru) {
    promote(set, w);
  } else {
    // Streaming insert: stamp 0 makes this line the LRU victim candidate.
    way.stamp = 0;
  }
  return evicted;
}

bool CacheArray::mark_dirty(std::uint32_t set, Addr line_addr) {
  const std::size_t i = find(set, line_addr);
  if (i == npos) return false;
  meta_[i].dirty = true;
  return true;
}

bool CacheArray::invalidate(std::uint32_t set, Addr line_addr) {
  const std::size_t i = find(set, line_addr);
  if (i == npos) return false;
  tags_[i] = kInvalid;
  meta_[i].dirty = false;
  return true;
}

std::uint8_t CacheArray::rrpv_of(std::uint32_t set, Addr line_addr) const {
  const std::size_t i = find(set, line_addr);
  return i != npos ? meta_[i].rrpv : 0;
}

std::uint64_t CacheArray::valid_count() const {
  std::uint64_t n = 0;
  for (const Addr t : tags_) n += t != kInvalid ? 1 : 0;
  return n;
}

std::vector<Addr> CacheArray::set_contents(std::uint32_t set) const {
  std::vector<Addr> out;
  const Addr* tags = &tags_[base_of(set)];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags[w] != kInvalid) out.push_back(tags[w]);
  }
  return out;
}

}  // namespace llamcat
