// Closed partitions and the merge closure (paper section 2.1).
//
// A partition P of a machine T's states is *closed* (an SP partition /
// congruence) when every event maps each block into a single block. The
// merge closure of (P, pairs) is the finest closed partition that is coarser
// than or equal to P and unites each given pair — exactly the "new largest
// closed partition which is less than this new (possibly not closed)
// partition" used by the paper's lower-cover construction (Definition 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "fsm/dfsm.hpp"
#include "partition/partition.hpp"

namespace ffsm {

/// True iff every subscribed event maps each block of `p` into one block.
[[nodiscard]] bool is_closed(const Dfsm& machine, const Partition& p);

/// Finest closed partition Q with Q <= p (coarser or equal) in which every
/// pair (a,b) of `merges` shares a block.
///
/// Union-find congruence closure: seed with p's blocks and the requested
/// pairs; whenever two classes unite, their successor pairs under every
/// event are enqueued. O((N + |merges|) * |Sigma| * alpha(N)).
[[nodiscard]] Partition merge_closure(
    const Dfsm& machine, const Partition& p,
    std::span<const std::pair<State, State>> merges);

/// Index of the base-block pair (i, j), i < j, among all pairs of
/// `blocks` blocks enumerated lexicographically: (0,1), (0,2), ...,
/// (0,blocks-1), (1,2), ... — the numbering of lower_cover's block-pair
/// graph, and the order of the definition's pair scan.
[[nodiscard]] constexpr std::size_t block_pair_index(
    std::uint32_t i, std::uint32_t j, std::uint32_t blocks) noexcept {
  return static_cast<std::size_t>(i) * blocks -
         static_cast<std::size_t>(i) * (i + 1) / 2 + (j - i - 1);
}

/// Batch evaluator for many single-pair merge closures over one fixed base
/// partition: lower_cover closes one pair per sink component with it.
///
/// Compared to calling merge_closure per pair, the engine (a) seeds the
/// base partition's union-find once and restores it per pair with
/// memcpys instead of re-running the seeding closure, (b) keeps the root
/// pairs it united and reads each union's successor pairs one event at a
/// time, so no queue of every union's successors is built, and (c) fuses
/// canonical renumbering with the FNV-1a hash (identical to
/// Partition::hash()) in one pass, so callers can dedup results without
/// materializing a Partition for each. Results are bit-identical to
/// merge_closure(machine, base, {{a,b}}).
///
/// Not thread-safe; use one engine per thread over the same base.
class MergeClosureEngine {
 public:
  /// Seeds the engine with the base partition's congruence closure. `base`
  /// must be closed (it is in the lower-cover use; the seeding still
  /// closes it otherwise, matching merge_closure's seeding semantics).
  MergeClosureEngine(const Dfsm& machine, const Partition& base);

  /// Computes closure(base, {(a,b)}). Returns the canonical assignment's
  /// FNV-1a hash (== Partition::hash() of the resulting partition); the
  /// assignment itself is readable via assignment() until the next call.
  std::size_t evaluate(State a, State b);

  /// Canonical (first-occurrence-normalized) block assignment of the last
  /// evaluate() call. Constructing Partition{assignment()} is exact.
  [[nodiscard]] std::span<const std::uint32_t> assignment() const noexcept {
    return canon_;
  }

  /// Block count of the last evaluate() call's result.
  [[nodiscard]] std::uint32_t block_count() const noexcept { return blocks_; }

 private:
  /// Congruence closure on the working union-find: unites `pairs`, then
  /// the successor pairs of every union in order.
  void run(std::span<const std::pair<State, State>> pairs);

  const Dfsm& machine_;
  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t blocks_ = 0;
  // Union-find snapshot after seeding with the base partition; evaluate()
  // memcpy-restores it into the scratch arrays per pair.
  std::vector<std::uint32_t> seed_parent_;
  std::vector<std::uint32_t> seed_size_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> norm_;
  std::vector<std::uint32_t> canon_;
  // Buffer for run(): the root pairs of its unions, in union order, each
  // expanded into its successor pairs. n slots: a run unites at most n - 1
  // times.
  std::vector<std::pair<State, State>> united_;
};

}  // namespace ffsm
