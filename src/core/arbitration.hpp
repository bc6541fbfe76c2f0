// The LLC request arbiter (paper §4.1 + §4.3): selects which queued request
// enters the slice's lookup pipeline. Implements the paper's policies
//   FCFS  - baseline first-come first-served
//   B     - balanced: min per-core progress counter
//   MA    - MSHR-aware: speculated cache hit > MSHR hit > miss, FCFS ties
//   BMA   - MA with balanced tie-breaking
//   cobrra- FCFS request pick (COBRRA differs in req-resp arbitration)
// plus related-work / ablation policies (paper §7.3):
//   mrpb  - MRPB-style queue prioritization: drain one requester's stream
//           in a burst to preserve its locality
//   oracle- BMA with a ground-truth tag probe instead of the hit_buffer
//           (upper bound on what MA's speculation can achieve)
//   random- uniformly random pick (fairness-without-intent control)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/speculation.hpp"

namespace llamcat {

/// A request waiting in the slice's request queue.
struct QueuedRequest {
  MemRequest req;
  Cycle enqueued_at = 0;
};

/// Ground-truth lookup the oracle policy uses in place of the speculative
/// hit_buffer. Implemented by the owning LLC slice (a tag probe).
class ILookupOracle {
 public:
  virtual ~ILookupOracle() = default;
  [[nodiscard]] virtual bool is_cache_hit(Addr line_addr) const = 0;

 protected:
  ILookupOracle() = default;
};

class RequestArbiter {
 public:
  RequestArbiter(const ArbConfig& cfg, std::uint32_t num_cores,
                 std::uint32_t sent_reqs_lifetime, std::uint64_t seed = 1);

  /// Speculated outcome classes, ordered by priority (paper §4.3.3).
  enum class SpecClass : std::uint8_t { kCacheHit = 0, kMshrHit = 1, kMiss = 2 };

  struct Choice {
    std::size_t index = 0;       // position in the request queue
    SpecClass spec = SpecClass::kMiss;
  };

  /// Picks a request from `queue` (nullopt when empty). Pure decision; call
  /// on_selected() once the slice actually dequeues it. `oracle` supplies
  /// ground-truth tag state and is only consulted by ArbPolicy::kOracle
  /// (pass nullptr otherwise; kOracle then degrades to MSHR-only
  /// classification).
  [[nodiscard]] std::optional<Choice> select(
      const std::vector<QueuedRequest>& queue, const Mshr& mshr,
      const ILookupOracle* oracle = nullptr) const;

  /// Bookkeeping when the chosen request enters the lookup pipeline:
  /// increments the requester's progress counter and records the request in
  /// sent_reqs with its speculated-hit bit.
  void on_selected(const MemRequest& req, SpecClass spec, Cycle now);

  /// Bookkeeping when a lookup resolves as a cache hit (updates hit_buffer).
  void on_hit_determined(Addr line_addr) { hit_buffer_.record_hit(line_addr); }

  /// Once per cycle: expire sent_reqs entries.
  void on_cycle(Cycle now) { sent_reqs_.expire(now); }

  /// Combined hit_buffer + MSHR_snapshot + sent_reqs speculation (Fig 5).
  [[nodiscard]] SpecClass classify(Addr line_addr, const Mshr& mshr) const;

  /// Progress counters: requests served per core since the last reset
  /// (reset at the beginning of each operator execution, §4.1).
  [[nodiscard]] const std::vector<std::uint64_t>& progress() const {
    return progress_;
  }
  void reset_progress();

  [[nodiscard]] ArbPolicy policy() const { return cfg_.policy; }
  [[nodiscard]] const HitBuffer& hit_buffer() const { return hit_buffer_; }
  [[nodiscard]] const SentReqs& sent_reqs() const { return sent_reqs_; }

 private:
  [[nodiscard]] std::size_t pick_fcfs(
      const std::vector<QueuedRequest>& queue) const;
  [[nodiscard]] std::size_t pick_balanced(
      const std::vector<QueuedRequest>& queue) const;
  /// MA / BMA / oracle: ranks every queued request by speculated class.
  /// `is_hit` is the cache-hit predicate (the hit_buffer, or the oracle's
  /// ground truth); `balanced_ties` breaks class ties by progress.
  template <class IsHit>
  [[nodiscard]] Choice pick_mshr_aware(const std::vector<QueuedRequest>& queue,
                                       const Mshr& mshr, bool balanced_ties,
                                       IsHit is_hit) const;
  [[nodiscard]] std::size_t pick_mrpb(
      const std::vector<QueuedRequest>& queue) const;

  ArbConfig cfg_;
  HitBuffer hit_buffer_;
  SentReqs sent_reqs_;
  std::vector<std::uint64_t> progress_;
  /// kMrpb: requester whose stream is currently being burst-drained.
  CoreId mrpb_core_ = static_cast<CoreId>(kInvalidCore);
  /// kRandom: RNG state is not logical arbiter state; select() stays const.
  mutable Xoshiro256 rng_;
  /// Scratch for pick_mshr_aware: the lines of every MSHR entry plus every
  /// sent_reqs entry with spec_hit == 0, gathered once per pick and reused
  /// across picks. A vector, not a fixed array: mshr_entries is a knob.
  mutable std::vector<Addr> mshr_bound_;
};

}  // namespace llamcat
