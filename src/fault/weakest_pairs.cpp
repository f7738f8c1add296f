#include "fault/weakest_pairs.hpp"

#include <algorithm>
#include <numeric>

#include "util/contracts.hpp"

namespace ffsm {

WeakestPairs::WeakestPairs(std::uint32_t n,
                           std::span<const Partition> machines)
    : n_(n),
      machines_(machines.begin(), machines.end()),
      count_(n, 0),
      slot_(n, 0),
      mark_(n, 0) {
  for (const Partition& p : machines_) FFSM_EXPECTS(p.size() == n);
  if (n < 2) return;
  const std::size_t k = machines_.size();
  levels_.resize(k + 2);
  Blocks& all = levels_[0];
  all.members.resize(n);
  std::iota(all.members.begin(), all.members.end(), 0u);
  all.ends.push_back(n);
  // dmin is the least d at which some (k - d)-subset leaves two states in
  // one block. At d = k the empty subset's single block does.
  for (std::uint32_t d = 0;; ++d) {
    collect(0, 0, k, k - d, nullptr);
    if (!weakest_.ends.empty()) {
      dmin_ = d;
      return;
    }
  }
}

void WeakestPairs::split(const Blocks& in, const Partition& machine,
                         Blocks& out) {
  const std::uint32_t* const block = machine.assignment().data();
  out.members.clear();
  out.ends.clear();
  std::uint32_t begin = 0;
  for (const std::uint32_t end : in.ends) {
    const std::uint32_t* const first = in.members.data() + begin;
    const std::uint32_t* const last = in.members.data() + end;
    for (const std::uint32_t* s = first; s != last; ++s) ++count_[block[*s]];
    // Parts are laid out in order of their first member; slot_ holds a
    // part's next free position plus one.
    for (const std::uint32_t* s = first; s != last; ++s) {
      const std::uint32_t b = block[*s];
      if (count_[b] < 2) continue;
      if (slot_[b] == 0) {
        slot_[b] = static_cast<std::uint32_t>(out.members.size()) + 1;
        out.members.resize(out.members.size() + count_[b]);
        out.ends.push_back(static_cast<std::uint32_t>(out.members.size()));
      }
      out.members[slot_[b]++ - 1] = *s;
    }
    for (const std::uint32_t* s = first; s != last; ++s) {
      count_[block[*s]] = 0;
      slot_[block[*s]] = 0;
    }
    begin = end;
  }
}

void WeakestPairs::collect(std::size_t depth, std::size_t first,
                           std::size_t last, std::size_t size,
                           const Partition* tail) {
  if (size == 0) {
    const Blocks* meet = &levels_[depth];
    if (tail != nullptr) {
      split(levels_[depth], *tail, levels_[depth + 1]);
      meet = &levels_[depth + 1];
    }
    const auto offset = static_cast<std::uint32_t>(weakest_.members.size());
    weakest_.members.insert(weakest_.members.end(), meet->members.begin(),
                            meet->members.end());
    for (const std::uint32_t end : meet->ends)
      weakest_.ends.push_back(offset + end);
    return;
  }
  for (std::size_t j = first; j + size <= last; ++j) {
    split(levels_[depth], machines_[j], levels_[depth + 1]);
    // A prefix that separates every state does so in every subset that
    // holds it.
    if (!levels_[depth + 1].ends.empty())
      collect(depth + 1, j + 1, last, size - 1, tail);
  }
}

bool WeakestPairs::separated_by(const Partition& candidate) {
  FFSM_EXPECTS(candidate.size() == n_);
  const std::uint32_t* const block = candidate.assignment().data();
  const std::uint32_t* const members = weakest_.members.data();
  std::uint32_t begin = 0;
  for (const std::uint32_t end : weakest_.ends) {
    if (++epoch_ == 0) {  // the round numbers wrapped: forget old marks
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    for (std::uint32_t i = begin; i < end; ++i) {
      std::uint32_t& seen = mark_[block[members[i]]];
      if (seen == epoch_) return false;
      seen = epoch_;
    }
    begin = end;
  }
  return true;
}

void WeakestPairs::add_machine(const Partition& machine) {
  FFSM_EXPECTS(dmin_ != kInfinity);
  FFSM_EXPECTS(separated_by(machine));
  // The subset size k - dmin stays; the new subsets are the old
  // (size - 1)-subsets with the new machine.
  const std::size_t k = machines_.size();
  const std::size_t size = k - dmin_;
  if (size > 0) collect(0, 0, k, size - 1, &machine);
  machines_.push_back(machine);
  levels_.resize(machines_.size() + 2);
  ++dmin_;
}

}  // namespace ffsm
