#include "cache/mshr.hpp"

#include <algorithm>
#include <cassert>

namespace llamcat {

Mshr::Mshr(std::uint32_t num_entries, std::uint32_t num_targets)
    : num_entries_(num_entries), num_targets_(num_targets) {
  assert(num_entries_ > 0 && num_targets_ > 0);
  entries_.resize(num_entries_);
}

Mshr::Entry* Mshr::find(Addr line_addr) {
  for (std::size_t i = 0; i < live_; ++i) {
    if (entries_[i].line_addr == line_addr) return &entries_[i];
  }
  return nullptr;
}

const Mshr::Entry* Mshr::find(Addr line_addr) const {
  return const_cast<Mshr*>(this)->find(line_addr);
}

Mshr::AddResult Mshr::add(Addr line_addr, const MshrTarget& target,
                          Cycle now) {
  if (Entry* e = find(line_addr)) {
    if (e->targets.size() >= num_targets_) return AddResult::kNoTargetFree;
    e->targets.push_back(target);
    return AddResult::kMerged;
  }
  if (!entry_available()) return AddResult::kNoEntryFree;
  Entry& e = entries_[live_++];
  e.line_addr = line_addr;
  e.targets.clear();
  e.targets.push_back(target);
  e.issued_to_dram = false;
  e.alloc_cycle = now;
  return AddResult::kNewEntry;
}

void Mshr::release(Addr line_addr, std::vector<MshrTarget>& targets) {
  const auto live_end = entries_.begin() + static_cast<std::ptrdiff_t>(live_);
  const auto it =
      std::find_if(entries_.begin(), live_end,
                   [&](const Entry& e) { return e.line_addr == line_addr; });
  assert(it != live_end && "release of unknown MSHR entry");
  targets.assign(it->targets.begin(), it->targets.end());
  // Rotate the freed slot past the live ones: the survivors keep their
  // order and the slot keeps its target storage.
  std::rotate(it, it + 1, live_end);
  --live_;
}

}  // namespace llamcat
