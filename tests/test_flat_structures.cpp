// Differential tests for the flat per-request structures on the LLC and L1
// paths: each structure runs random operation sequences side by side with a
// plain reference model built from std containers, and every answer must
// match.
//   - HitBuffer / SentReqs rings vs a FIFO + std::multiset
//   - the arbiter's per-pick MSHR snapshot vs per-request classify()
//   - LineIndex (the L1 miss index) vs std::map, on colliding lines
//   - L1Cache's would_hit / has_pending_miss vs its own load results
//   - the tag + metadata CacheArray vs an array-of-structs reference
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/l1_cache.hpp"
#include "cache/line_index.hpp"
#include "cache/mshr.hpp"
#include "common/rng.hpp"
#include "core/arbitration.hpp"
#include "core/speculation.hpp"

namespace llamcat {
namespace {

Addr line(std::uint64_t i) { return i * kLineBytes; }

// ------------------------------------------------------------ HitBuffer --

class HitBufferDiff : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HitBufferDiff, MatchesFifoMultiset) {
  const std::uint32_t depth = GetParam();
  HitBuffer hb(depth);
  std::deque<Addr> fifo;
  std::multiset<Addr> live;
  Xoshiro256 rng(depth + 11);
  for (int op = 0; op < 20000; ++op) {
    const Addr l = line(rng.below(48));
    if (rng.below(3) == 0) {
      hb.record_hit(l);
      if (depth == 0) continue;
      fifo.push_back(l);
      live.insert(l);
      if (fifo.size() > depth) {
        live.erase(live.find(fifo.front()));
        fifo.pop_front();
      }
    } else {
      ASSERT_EQ(hb.contains(l), live.count(l) > 0) << "op " << op;
    }
    ASSERT_EQ(hb.size(), fifo.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, HitBufferDiff,
                         ::testing::Values(0u, 1u, 3u, 32u));

// ------------------------------------------------------------- SentReqs --

struct SentCase {
  std::uint32_t depth;
  std::uint32_t lifetime;
  std::uint32_t max_pushes_per_cycle;  // > 1 overfills any depth
};

class SentReqsDiff : public ::testing::TestWithParam<SentCase> {};

TEST_P(SentReqsDiff, MatchesFifoMultiset) {
  const SentCase c = GetParam();
  SentReqs sr(c.depth, c.lifetime);
  struct Ref {
    Addr line;
    bool spec_hit;
    Cycle at;
  };
  std::deque<Ref> fifo;
  std::multiset<Addr> mshr_bound;
  Xoshiro256 rng(c.depth * 131 + c.lifetime);
  Cycle now = 0;
  for (int cycle = 0; cycle < 5000; ++cycle) {
    now += 1 + rng.below(2);
    sr.expire(now);
    while (!fifo.empty() && fifo.front().at + c.lifetime <= now) {
      if (!fifo.front().spec_hit) {
        mshr_bound.erase(mshr_bound.find(fifo.front().line));
      }
      fifo.pop_front();
    }
    const std::uint64_t pushes = rng.below(c.max_pushes_per_cycle + 1);
    for (std::uint64_t p = 0; p < pushes; ++p) {
      const Addr l = line(rng.below(24));
      const bool spec_hit = rng.below(3) == 0;
      sr.push(l, spec_hit, now);
      if (c.depth == 0) continue;
      fifo.push_back(Ref{l, spec_hit, now});
      if (!spec_hit) mshr_bound.insert(l);
    }
    ASSERT_EQ(sr.size(), fifo.size()) << "cycle " << cycle;
    for (std::uint64_t i = 0; i < 24; ++i) {
      ASSERT_EQ(sr.contains_mshr_bound(line(i)), mshr_bound.count(line(i)) > 0)
          << "cycle " << cycle << " line " << i;
    }
    std::vector<Addr> snap;
    sr.append_mshr_bound(snap);
    ASSERT_EQ(std::multiset<Addr>(snap.begin(), snap.end()), mshr_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Depths, SentReqsDiff,
    ::testing::Values(SentCase{0, 8, 1},    // tracks nothing
                      SentCase{1, 8, 1},    // depth 1 < lifetime
                      SentCase{3, 8, 1},    // depth < lifetime
                      SentCase{16, 8, 1},   // the shipped geometry
                      SentCase{4, 8, 5}));  // bursts: the ring must grow

// ------------------------------------------------ arbiter MSHR snapshot --

class FakeOracle final : public ILookupOracle {
 public:
  [[nodiscard]] bool is_cache_hit(Addr a) const override {
    return hits.count(a) > 0;
  }
  std::set<Addr> hits;
};

// The pick before the snapshot: classify every queued request on its own.
RequestArbiter::Choice reference_pick(const RequestArbiter& arb,
                                      const std::vector<QueuedRequest>& q,
                                      const Mshr& mshr, bool balanced,
                                      const ILookupOracle* oracle) {
  const auto class_of = [&](Addr a) {
    if (oracle == nullptr) return arb.classify(a, mshr);
    // The oracle pick swaps the hit_buffer for ground truth.
    if (oracle->is_cache_hit(a)) return RequestArbiter::SpecClass::kCacheHit;
    if (mshr.find(a) != nullptr || arb.sent_reqs().contains_mshr_bound(a)) {
      return RequestArbiter::SpecClass::kMshrHit;
    }
    return RequestArbiter::SpecClass::kMiss;
  };
  RequestArbiter::Choice best{0, class_of(q[0].req.line_addr)};
  for (std::size_t i = 1; i < q.size(); ++i) {
    const auto c = class_of(q[i].req.line_addr);
    const auto& prog = arb.progress();
    if (c < best.spec ||
        (c == best.spec && balanced &&
         prog[q[i].req.core] < prog[q[best.index].req.core])) {
      best = RequestArbiter::Choice{i, c};
    }
  }
  return best;
}

class ArbiterSnapshotDiff : public ::testing::TestWithParam<ArbPolicy> {};

TEST_P(ArbiterSnapshotDiff, PicksMatchPerRequestClassify) {
  const ArbPolicy policy = GetParam();
  ArbConfig cfg;
  cfg.policy = policy;
  cfg.hit_buffer_depth = 8;
  cfg.sent_reqs_depth = 4;  // below the lifetime: exercises ring growth
  RequestArbiter arb(cfg, /*num_cores=*/4, /*sent_reqs_lifetime=*/8, 5);
  Mshr mshr(6, 4);
  FakeOracle oracle;
  const ILookupOracle* oracle_ptr =
      policy == ArbPolicy::kOracle ? &oracle : nullptr;
  const bool balanced = policy != ArbPolicy::kMa;
  Xoshiro256 rng(static_cast<std::uint64_t>(policy) + 1);
  std::vector<QueuedRequest> queue;
  std::vector<MshrTarget> released;
  std::uint64_t seq = 0;
  for (Cycle now = 1; now < 6000; ++now) {
    arb.on_cycle(now);
    while (queue.size() < 12) {
      MemRequest r;
      r.line_addr = line(rng.below(20));
      r.core = static_cast<CoreId>(rng.below(4));
      r.seq = seq++;
      queue.push_back(QueuedRequest{r, now});
    }
    if (rng.below(4) == 0) arb.on_hit_determined(line(rng.below(20)));
    if (rng.below(4) == 0) oracle.hits.insert(line(rng.below(20)));
    if (rng.below(5) == 0) oracle.hits.erase(line(rng.below(20)));
    const Addr m = line(rng.below(20));
    if (rng.below(3) == 0 && mshr.find(m) == nullptr) {
      (void)mshr.add(m, MshrTarget{0, 0, false}, now);
    } else if (rng.below(3) == 0 && mshr.find(m) != nullptr) {
      mshr.release(m, released);
    }
    const auto got = arb.select(queue, mshr, oracle_ptr);
    ASSERT_TRUE(got.has_value());
    const auto want = reference_pick(arb, queue, mshr, balanced, oracle_ptr);
    ASSERT_EQ(got->index, want.index) << "cycle " << now;
    ASSERT_EQ(got->spec, want.spec) << "cycle " << now;
    arb.on_selected(queue[got->index].req, got->spec, now);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(got->index));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ArbiterSnapshotDiff,
                         ::testing::Values(ArbPolicy::kMa, ArbPolicy::kBma,
                                           ArbPolicy::kOracle));

// ------------------------------------------------------------ LineIndex --

// Lines whose home slot is one of `slots`: every one of them collides, and
// slots at the end of the table make the probe runs wrap.
std::vector<Addr> colliding_lines(const LineIndex& idx,
                                  const std::set<std::size_t>& slots,
                                  std::size_t count) {
  std::vector<Addr> out;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    if (slots.count(idx.home_slot(line(i))) > 0) out.push_back(line(i));
  }
  return out;
}

TEST(LineIndexDiff, MatchesStdMapOnCollidingLines) {
  constexpr std::size_t kMax = 16;
  LineIndex idx(kMax);
  const std::size_t last = idx.table_size() - 1;
  const std::vector<Addr> keys = colliding_lines(idx, {last - 1, last, 0}, 40);
  std::map<Addr, std::uint32_t> ref;
  Xoshiro256 rng(21);
  for (int op = 0; op < 50000; ++op) {
    const Addr k = keys[rng.below(keys.size())];
    const bool present = ref.count(k) > 0;
    switch (rng.below(3)) {
      case 0:
        if (!present && ref.size() < kMax) {
          const auto v = static_cast<std::uint32_t>(rng.below(1000));
          idx.insert(k, v);
          ref[k] = v;
        }
        break;
      case 1:
        if (present) {
          idx.erase(k);
          ref.erase(k);
        }
        break;
      default:
        if (present) {
          const auto v = static_cast<std::uint32_t>(rng.below(1000));
          idx.assign(k, v);
          ref[k] = v;
        }
        break;
    }
    ASSERT_EQ(idx.size(), ref.size());
    for (const Addr q : keys) {
      const auto it = ref.find(q);
      ASSERT_EQ(idx.find(q), it == ref.end() ? LineIndex::kNone : it->second)
          << "op " << op;
    }
  }
}

TEST(LineIndexDiff, ConsecutiveLinesSpreadAcrossTheTable) {
  // The Fibonacci mix keeps a run of consecutive lines (one core's
  // streaming misses) from piling into adjacent slots.
  const LineIndex idx(512);
  std::set<std::size_t> homes;
  for (std::uint64_t i = 0; i < 512; ++i) homes.insert(idx.home_slot(line(i)));
  EXPECT_GT(homes.size(), 400u);
}

// ------------------------------------------------------------- L1 cache --

TEST(L1MissIndexDiff, ProbesAgreeWithLoadsAndSwapErase) {
  L1Config cfg;
  cfg.size_bytes = 1024;  // 2 sets x 8 ways: evictions are frequent
  cfg.miss_queue_entries = 8;
  L1Cache l1(cfg, 0, 1);
  std::map<Addr, std::vector<L1Cache::LoadTag>> pending;  // line -> waiters
  std::vector<Addr> order;  // pending lines, oldest first
  std::vector<L1Cache::LoadTag> woken;
  Xoshiro256 rng(33);
  L1Cache::LoadTag tag = 0;
  for (int op = 0; op < 40000; ++op) {
    if (!order.empty() && rng.below(3) == 0) {
      // Fill a random outstanding miss (not the oldest): the swap-erase
      // moves the last miss into the hole.
      const std::size_t pick = rng.below(order.size());
      const Addr l = order[pick];
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(pick));
      l1.on_fill(l, woken);
      ASSERT_EQ(woken, pending[l]);
      pending.erase(l);
      ASSERT_TRUE(l1.would_hit(l));
      ASSERT_FALSE(l1.has_pending_miss(l));
      continue;
    }
    const Addr l = line(rng.below(64));
    const bool hit = l1.would_hit(l);
    const bool merge = l1.has_pending_miss(l);
    ASSERT_EQ(merge, pending.count(l) > 0) << "op " << op;
    const auto r = l1.access_load(l, ++tag);
    if (hit) {
      ASSERT_EQ(r, L1Cache::LoadResult::kHit);
    } else if (merge) {
      ASSERT_EQ(r, L1Cache::LoadResult::kMissMerged);
      pending[l].push_back(tag);
    } else if (order.size() == cfg.miss_queue_entries) {
      ASSERT_EQ(r, L1Cache::LoadResult::kBlocked);
    } else {
      ASSERT_EQ(r, L1Cache::LoadResult::kMissNew);
      pending[l] = {tag};
      order.push_back(l);
    }
    ASSERT_EQ(l1.outstanding_misses(), order.size());
  }
}

// ----------------------------------------------------------- CacheArray --

// The array-of-structs CacheArray the tag + metadata split replaced, kept
// as the reference model.
class RefCacheArray {
 public:
  RefCacheArray(std::uint32_t sets, std::uint32_t assoc, ReplPolicy repl,
                InsertPolicy insert, std::uint64_t seed)
      : assoc_(assoc),
        repl_(repl),
        insert_(insert),
        ways_(static_cast<std::size_t>(sets) * assoc),
        plru_(sets, 0),
        rng_(seed) {}

  bool touch(std::uint32_t set, Addr l) {
    const int w = find(set, l);
    if (w < 0) return false;
    promote(set, static_cast<std::uint32_t>(w));
    return true;
  }
  std::optional<CacheArray::Evicted> fill(std::uint32_t set, Addr l,
                                          bool dirty) {
    const std::uint32_t w = victim(set);
    Way& way = at(set, w);
    std::optional<CacheArray::Evicted> ev;
    if (way.valid) ev = CacheArray::Evicted{way.line, way.dirty};
    way.line = l;
    way.valid = true;
    way.dirty = dirty;
    if (repl_ == ReplPolicy::kFifo) {
      way.stamp = ++tick_;
    } else if (repl_ == ReplPolicy::kSrrip) {
      way.rrpv = insert_ == InsertPolicy::kMru ? 2 : 3;
      way.stamp = insert_ == InsertPolicy::kMru ? ++tick_ : 0;
    } else if (insert_ == InsertPolicy::kMru) {
      promote(set, w);
    } else {
      way.stamp = 0;
    }
    return ev;
  }
  bool mark_dirty(std::uint32_t set, Addr l) {
    const int w = find(set, l);
    if (w < 0) return false;
    at(set, static_cast<std::uint32_t>(w)).dirty = true;
    return true;
  }
  bool invalidate(std::uint32_t set, Addr l) {
    const int w = find(set, l);
    if (w < 0) return false;
    at(set, static_cast<std::uint32_t>(w)).valid = false;
    at(set, static_cast<std::uint32_t>(w)).dirty = false;
    return true;
  }
  std::uint8_t rrpv_of(std::uint32_t set, Addr l) {
    const int w = find(set, l);
    return w < 0 ? 0 : at(set, static_cast<std::uint32_t>(w)).rrpv;
  }
  std::uint64_t valid_count() const {
    std::uint64_t n = 0;
    for (const Way& w : ways_) n += w.valid ? 1 : 0;
    return n;
  }
  std::vector<Addr> set_contents(std::uint32_t set) {
    std::vector<Addr> out;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (at(set, w).valid) out.push_back(at(set, w).line);
    }
    return out;
  }

 private:
  struct Way {
    Addr line = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t stamp = 0;
    std::uint8_t rrpv = 0;
  };
  Way& at(std::uint32_t set, std::uint32_t w) {
    return ways_[static_cast<std::size_t>(set) * assoc_ + w];
  }
  int find(std::uint32_t set, Addr l) {
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (at(set, w).valid && at(set, w).line == l) return static_cast<int>(w);
    }
    return -1;
  }
  void promote(std::uint32_t set, std::uint32_t w) {
    if (repl_ == ReplPolicy::kFifo) return;
    at(set, w).stamp = ++tick_;
    at(set, w).rrpv = 0;
    if (repl_ != ReplPolicy::kTreePlru) return;
    std::uint32_t node = 0, lo = 0, hi = assoc_;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (w >= mid) {
        plru_[set] &= ~(1u << node);
        lo = mid;
        node = 2 * node + 2;
      } else {
        plru_[set] |= (1u << node);
        hi = mid;
        node = 2 * node + 1;
      }
    }
  }
  std::uint32_t oldest(std::uint32_t set) {
    std::uint32_t victim = 0;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (at(set, w).stamp < best) {
        best = at(set, w).stamp;
        victim = w;
      }
    }
    return victim;
  }
  std::uint32_t victim(std::uint32_t set) {
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (!at(set, w).valid) return w;
    }
    switch (repl_) {
      case ReplPolicy::kLru:
      case ReplPolicy::kFifo:
        return oldest(set);
      case ReplPolicy::kRandom:
        return static_cast<std::uint32_t>(rng_.below(assoc_));
      case ReplPolicy::kTreePlru: {
        std::uint32_t node = 0, lo = 0, hi = assoc_;
        while (hi - lo > 1) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if ((plru_[set] >> node) & 1u) {
            lo = mid;
            node = 2 * node + 2;
          } else {
            hi = mid;
            node = 2 * node + 1;
          }
        }
        return lo;
      }
      case ReplPolicy::kSrrip:
        for (;;) {
          for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (at(set, w).rrpv == 3) return w;
          }
          for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (at(set, w).rrpv < 3) ++at(set, w).rrpv;
          }
        }
    }
    return 0;
  }

  std::uint32_t assoc_;
  ReplPolicy repl_;
  InsertPolicy insert_;
  std::vector<Way> ways_;
  std::vector<std::uint32_t> plru_;
  std::uint64_t tick_ = 0;
  Xoshiro256 rng_;
};

class CacheArrayDiff : public ::testing::TestWithParam<
                           std::tuple<ReplPolicy, InsertPolicy>> {};

TEST_P(CacheArrayDiff, MatchesArrayOfStructsReference) {
  const auto [repl, ins] = GetParam();
  constexpr std::uint32_t kSets = 8;
  constexpr std::uint32_t kAssoc = 4;
  CacheArray a(kSets, kAssoc, repl, ins, /*seed=*/7);
  RefCacheArray ref(kSets, kAssoc, repl, ins, /*seed=*/7);
  Xoshiro256 rng(static_cast<std::uint64_t>(repl) * 10 +
                 static_cast<std::uint64_t>(ins) + 1);
  std::uint64_t dirty_evictions = 0;
  for (int op = 0; op < 30000; ++op) {
    const Addr l = line(rng.below(96));
    const auto set = static_cast<std::uint32_t>(line_index(l) % kSets);
    switch (rng.below(8)) {
      case 0:
        ASSERT_EQ(a.invalidate(set, l), ref.invalidate(set, l));
        break;
      case 1:
        ASSERT_EQ(a.mark_dirty(set, l), ref.mark_dirty(set, l));
        break;
      default: {
        const bool hit = a.touch(set, l);
        ASSERT_EQ(hit, ref.touch(set, l)) << "op " << op;
        if (hit) break;
        const bool dirty = rng.below(3) == 0;
        const auto ev = a.fill(set, l, dirty);
        const auto ref_ev = ref.fill(set, l, dirty);
        ASSERT_EQ(ev.has_value(), ref_ev.has_value()) << "op " << op;
        if (ev) {
          ASSERT_EQ(ev->line_addr, ref_ev->line_addr) << "op " << op;
          ASSERT_EQ(ev->dirty, ref_ev->dirty) << "op " << op;
          dirty_evictions += ev->dirty ? 1 : 0;
        }
        break;
      }
    }
    ASSERT_EQ(a.rrpv_of(set, l), ref.rrpv_of(set, l)) << "op " << op;
    ASSERT_EQ(a.valid_count(), ref.valid_count()) << "op " << op;
    ASSERT_EQ(a.set_contents(set), ref.set_contents(set)) << "op " << op;
  }
  EXPECT_GT(dirty_evictions, 0u);  // the dirty path was exercised
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CacheArrayDiff,
    ::testing::Combine(::testing::Values(ReplPolicy::kLru, ReplPolicy::kFifo,
                                         ReplPolicy::kRandom,
                                         ReplPolicy::kTreePlru,
                                         ReplPolicy::kSrrip),
                       ::testing::Values(InsertPolicy::kMru,
                                         InsertPolicy::kStreaming)));

}  // namespace
}  // namespace llamcat
