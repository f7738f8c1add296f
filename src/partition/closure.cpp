#include "partition/closure.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ffsm {

bool is_closed(const Dfsm& machine, const Partition& p) {
  FFSM_EXPECTS(p.size() == machine.size());
  const auto k = static_cast<std::uint32_t>(machine.events().size());
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  // image[block][event] = block of the successors seen so far.
  std::vector<std::uint32_t> image(
      static_cast<std::size_t>(p.block_count()) * k, kUnset);
  for (State s = 0; s < machine.size(); ++s) {
    const std::uint32_t b = p.block_of(s);
    for (std::uint32_t e = 0; e < k; ++e) {
      const std::uint32_t target = p.block_of(machine.step_local(s, e));
      auto& slot = image[static_cast<std::size_t>(b) * k + e];
      if (slot == kUnset)
        slot = target;
      else if (slot != target)
        return false;
    }
  }
  return true;
}

namespace {

/// Plain union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::uint32_t n) : parent_(n), size_(n, 1) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns true when the two classes were distinct and are now united.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace

Partition merge_closure(const Dfsm& machine, const Partition& p,
                        std::span<const std::pair<State, State>> merges) {
  FFSM_EXPECTS(p.size() == machine.size());
  const std::uint32_t n = machine.size();
  const auto k = static_cast<std::uint32_t>(machine.events().size());

  UnionFind uf(n);
  std::vector<std::pair<State, State>> queue;
  queue.reserve(merges.size() + n);

  // Seed with the base partition: link every element to its block's first
  // element. The successor pairs are enqueued too, so the algorithm is
  // correct even when the base partition is not closed.
  {
    constexpr State kUnset = kInvalidState;
    std::vector<State> first(p.block_count(), kUnset);
    for (State s = 0; s < n; ++s) {
      State& f = first[p.block_of(s)];
      if (f == kUnset)
        f = s;
      else
        queue.emplace_back(f, s);
    }
  }
  queue.insert(queue.end(), merges.begin(), merges.end());

  // Congruence closure: uniting x and y forces delta(x,e) ~ delta(y,e).
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [x, y] = queue[head];
    FFSM_EXPECTS(x < n && y < n);
    if (!uf.unite(x, y)) continue;
    for (std::uint32_t e = 0; e < k; ++e)
      queue.emplace_back(machine.step_local(x, e), machine.step_local(y, e));
  }

  std::vector<std::uint32_t> assignment(n);
  for (State s = 0; s < n; ++s) assignment[s] = uf.find(s);
  Partition result{std::move(assignment)};
  FFSM_ENSURES(is_closed(machine, result));
  return result;
}

MergeClosureEngine::MergeClosureEngine(const Dfsm& machine,
                                       const Partition& base)
    : machine_(machine) {
  FFSM_EXPECTS(base.size() == machine.size());
  n_ = machine.size();
  k_ = static_cast<std::uint32_t>(machine.events().size());
  parent_.resize(n_);
  size_.assign(n_, 1);
  for (std::uint32_t i = 0; i < n_; ++i) parent_[i] = i;

  // Seed with the base partition: link every element to its block's first
  // element, then run the congruence closure once. The snapshot taken here
  // is what evaluate() restores per pair.
  united_.resize(n_);
  std::vector<State> first(base.block_count(), kInvalidState);
  std::vector<std::pair<State, State>> seeds;
  for (State s = 0; s < n_; ++s) {
    State& f = first[base.block_of(s)];
    if (f == kInvalidState)
      f = s;
    else
      seeds.emplace_back(f, s);
  }
  run(seeds);
  seed_parent_ = parent_;
  seed_size_ = size_;

  norm_.resize(n_);
  canon_.resize(n_);
}

void MergeClosureEngine::run(std::span<const std::pair<State, State>> pairs) {
  // Congruence closure. Invariant: the seeded base is already closed, so
  // within every class all members' successors are co-classed; expanding
  // the *root representatives'* successors (instead of the original
  // pair's, as merge_closure does) therefore reaches the same fixpoint —
  // one successor pair per union and event instead of one per queue entry.
  //
  // The successor pairs are generated from the recorded unions as they are
  // read: the explicit pairs first, then union by union, event by event —
  // the order a FIFO queue of every union's successors would hold them in,
  // without building that queue.
  auto find = [this](std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  };
  // A plain pointer and a local count, not push_back: the compiler then
  // keeps both in registers instead of reloading the vector's end pointer
  // around every union.
  std::pair<State, State>* const united = united_.data();
  std::size_t count = 0;
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    std::uint32_t x = find(a);
    std::uint32_t y = find(b);
    if (x == y) return;
    if (size_[x] < size_[y]) std::swap(x, y);
    parent_[y] = x;
    size_[x] += size_[y];
    united[count++] = {x, y};
  };
  for (const auto& [a, b] : pairs) unite(a, b);
  for (std::size_t u = 0; u < count; ++u) {
    const auto [x, y] = united[u];
    for (std::uint32_t e = 0; e < k_; ++e)
      unite(machine_.step_local(x, e), machine_.step_local(y, e));
  }
}

std::size_t MergeClosureEngine::evaluate(State a, State b) {
  FFSM_EXPECTS(a < n_ && b < n_);
  const std::size_t bytes =
      static_cast<std::size_t>(n_) * sizeof(std::uint32_t);
  std::memcpy(parent_.data(), seed_parent_.data(), bytes);
  std::memcpy(size_.data(), seed_size_.data(), bytes);
  const std::pair<State, State> pair{a, b};
  run({&pair, 1});

  // First-occurrence renumbering fused with the same per-element FNV-1a
  // round Partition::hash() applies, so the returned hash equals
  // Partition{canonical assignment}.hash() without building the Partition.
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::fill(norm_.begin(), norm_.end(), kUnset);
  std::uint32_t next = 0;
  std::uint64_t h = kFnv1aOffset;
  auto find = [this](std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  };
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t r = find(i);
    if (norm_[r] == kUnset) norm_[r] = next++;
    canon_[i] = norm_[r];
    h ^= canon_[i];
    h *= kFnv1aPrime;
  }
  blocks_ = next;
  return static_cast<std::size_t>(h);
}

}  // namespace ffsm
