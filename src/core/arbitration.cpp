#include "core/arbitration.hpp"

#include <cassert>

namespace llamcat {

RequestArbiter::RequestArbiter(const ArbConfig& cfg, std::uint32_t num_cores,
                               std::uint32_t sent_reqs_lifetime,
                               std::uint64_t seed)
    : cfg_(cfg),
      hit_buffer_(cfg.hit_buffer_depth),
      sent_reqs_(cfg.sent_reqs_depth, sent_reqs_lifetime),
      progress_(num_cores, 0),
      rng_(seed) {}

void RequestArbiter::reset_progress() {
  progress_.assign(progress_.size(), 0);
}

namespace {
/// The class order of Fig 5: a speculated cache hit beats an MSHR hit,
/// which beats a miss.
template <class IsHit, class IsMshrBound>
RequestArbiter::SpecClass speculate(Addr line_addr, IsHit is_hit,
                                    IsMshrBound is_mshr_bound) {
  if (is_hit(line_addr)) return RequestArbiter::SpecClass::kCacheHit;
  if (is_mshr_bound(line_addr)) return RequestArbiter::SpecClass::kMshrHit;
  return RequestArbiter::SpecClass::kMiss;
}
}  // namespace

RequestArbiter::SpecClass RequestArbiter::classify(Addr line_addr,
                                                   const Mshr& mshr) const {
  // Step 1+2 of Fig 5: the hit_buffer section of the combined list.
  // Step 3: MSHR_snapshot (live wire) + sent_reqs with spec_hit == 0.
  return speculate(
      line_addr, [&](Addr a) { return hit_buffer_.contains(a); },
      [&](Addr a) {
        return mshr.find(a) != nullptr || sent_reqs_.contains_mshr_bound(a);
      });
}

std::size_t RequestArbiter::pick_fcfs(
    const std::vector<QueuedRequest>& queue) const {
  // The queue is kept in arrival order; FCFS takes the head.
  (void)queue;
  return 0;
}

std::size_t RequestArbiter::pick_balanced(
    const std::vector<QueuedRequest>& queue) const {
  std::size_t best = 0;
  std::uint64_t best_prog = progress_[queue[0].req.core];
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const std::uint64_t p = progress_[queue[i].req.core];
    if (p < best_prog) {  // strict: ties resolve to the earliest arrival
      best_prog = p;
      best = i;
    }
  }
  return best;
}

template <class IsHit>
RequestArbiter::Choice RequestArbiter::pick_mshr_aware(
    const std::vector<QueuedRequest>& queue, const Mshr& mshr,
    bool balanced_ties, IsHit is_hit) const {
  // Neither the MSHR nor sent_reqs changes during a pick, so the MSHR half
  // of classify() is one snapshot shared by every queued request.
  mshr_bound_.clear();
  for (const Mshr::Entry& e : mshr.entries()) mshr_bound_.push_back(e.line_addr);
  sent_reqs_.append_mshr_bound(mshr_bound_);
  const auto is_mshr_bound = [&](Addr line_addr) {
    for (const Addr a : mshr_bound_) {
      if (a == line_addr) return true;
    }
    return false;
  };
  std::size_t best = 0;
  SpecClass best_class =
      speculate(queue[0].req.line_addr, is_hit, is_mshr_bound);
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const SpecClass c =
        speculate(queue[i].req.line_addr, is_hit, is_mshr_bound);
    bool better = false;
    if (c < best_class) {
      better = true;
    } else if (c == best_class && balanced_ties) {
      // BMA: within a class, pick the least-served requester; remaining
      // ties resolve to the earliest arrival (i.e. keep current).
      better =
          progress_[queue[i].req.core] < progress_[queue[best].req.core];
    }
    if (better) {
      best = i;
      best_class = c;
    }
  }
  return Choice{best, best_class};
}

std::size_t RequestArbiter::pick_mrpb(
    const std::vector<QueuedRequest>& queue) const {
  // MRPB-adapted queue prioritization [9]: keep draining the stream of the
  // most recently served requester (its consecutive requests are the most
  // likely to share rows/MSHR entries); fall back to the queue head (the
  // oldest request overall) when that requester has nothing pending.
  if (mrpb_core_ != static_cast<CoreId>(kInvalidCore)) {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].req.core == mrpb_core_) return i;
    }
  }
  return 0;
}

std::optional<RequestArbiter::Choice> RequestArbiter::select(
    const std::vector<QueuedRequest>& queue, const Mshr& mshr,
    const ILookupOracle* oracle) const {
  if (queue.empty()) return std::nullopt;
  const auto hb_hit = [this](Addr a) { return hit_buffer_.contains(a); };
  switch (cfg_.policy) {
    case ArbPolicy::kFcfs:
    case ArbPolicy::kCobrra: {
      const std::size_t i = pick_fcfs(queue);
      return Choice{i, classify(queue[i].req.line_addr, mshr)};
    }
    case ArbPolicy::kBalanced: {
      const std::size_t i = pick_balanced(queue);
      return Choice{i, classify(queue[i].req.line_addr, mshr)};
    }
    case ArbPolicy::kMa:
      return pick_mshr_aware(queue, mshr, /*balanced_ties=*/false, hb_hit);
    case ArbPolicy::kBma:
      return pick_mshr_aware(queue, mshr, /*balanced_ties=*/true, hb_hit);
    case ArbPolicy::kMrpb: {
      const std::size_t i = pick_mrpb(queue);
      return Choice{i, classify(queue[i].req.line_addr, mshr)};
    }
    case ArbPolicy::kOracle:
      // BMA with a ground-truth tag probe in place of the hit_buffer; the
      // MSHR half (snapshot + sent_reqs) is already exact by construction.
      return pick_mshr_aware(queue, mshr, /*balanced_ties=*/true,
                             [oracle](Addr a) {
                               return oracle != nullptr &&
                                      oracle->is_cache_hit(a);
                             });
    case ArbPolicy::kRandom: {
      const std::size_t i = static_cast<std::size_t>(rng_.below(queue.size()));
      return Choice{i, classify(queue[i].req.line_addr, mshr)};
    }
  }
  return std::nullopt;
}

void RequestArbiter::on_selected(const MemRequest& req, SpecClass spec,
                                 Cycle now) {
  assert(req.core < progress_.size());
  ++progress_[req.core];
  mrpb_core_ = req.core;
  sent_reqs_.push(req.line_addr, spec == SpecClass::kCacheHit, now);
}

}  // namespace llamcat
