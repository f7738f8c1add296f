// The weakest pairs of a machine set, read from the machines themselves
// rather than from their fault graph.
//
// Algorithm 2 (paper section 5.1) reads the fault graph G(T, M) for two
// things only: its least edge weight dmin, and whether a candidate machine
// separates every edge of that weight (the weakest edges). Both follow from
// the k machines. Read each top state as the tuple of its blocks in the k
// machines: an edge's weight is then the Hamming distance between its two
// tuples, which is how the journal version of the paper (Balasubramanian
// & Garg, arXiv 1303.5891) frames Theorem 1. So:
//   * a pair lies at distance d or less iff some k - d machines all fail to
//     separate it, hence dmin > d iff the meet of every (k - d)-subset of
//     the machines is the identity partition;
//   * the weakest pairs are exactly the pairs that share a block of some
//     (k - dmin)-subset's meet, and a candidate separates all of them iff
//     it separates the states of every such block.
//
// WeakestPairs keeps those blocks that hold two or more states. It builds
// each meet by splitting blocks one machine at a time and drops a state as
// soon as it is alone in its block, so a prefix of machines that already
// separates every state cuts off every subset that contains it. The cost
// is C(k, dmin) meets of N states in place of N(N-1)/2 edge weights.
//
// Adding a machine that separates every weakest pair raises dmin by
// exactly one (Lemma 1) and so keeps the subset size k - dmin: the blocks
// of the subsets without the new machine stand as they are, and the
// subsets with it split the meets of (k - dmin - 1)-subsets of the old
// machines by the new one.
//
// FaultGraph (fault/fault_graph.hpp) stays the definition: the tests check
// dmin() and separated_by() against its dmin() and weakest edges at every
// step of Algorithm 2.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "partition/partition.hpp"

namespace ffsm {

class WeakestPairs {
 public:
  /// dmin() of a top with fewer than two states: no pair needs separating.
  /// Equal to FaultGraph::kInfinity.
  static constexpr std::uint32_t kInfinity =
      std::numeric_limits<std::uint32_t>::max();

  /// The weakest pairs of `machines`, closed partitions of `n` top states.
  WeakestPairs(std::uint32_t n, std::span<const Partition> machines);

  /// The least distance between two top states' machine tuples, the fault
  /// graph's dmin; kInfinity when n < 2.
  [[nodiscard]] std::uint32_t dmin() const noexcept { return dmin_; }

  /// True iff `candidate` separates every pair at distance dmin(), so that
  /// adding it raises dmin() by one. Marks blocks in the object's scratch
  /// array: one object serves one thread at a time.
  [[nodiscard]] bool separated_by(const Partition& candidate);

  /// Adds a machine that separated_by() accepts; dmin() rises by one.
  void add_machine(const Partition& machine);

 private:
  /// Blocks of two or more states: block b is members[ends[b-1], ends[b]).
  struct Blocks {
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> ends;
  };

  /// Splits every block of `in` by `machine` into `out`, keeping only the
  /// parts that hold two or more states.
  void split(const Blocks& in, const Partition& machine, Blocks& out);

  /// Appends to weakest_ the blocks of the meet of levels_[depth] with
  /// every `size`-subset of machines_[first, last), each split by `tail`
  /// as well when it is not null.
  void collect(std::size_t depth, std::size_t first, std::size_t last,
               std::size_t size, const Partition* tail);

  std::uint32_t n_ = 0;
  std::uint32_t dmin_ = kInfinity;
  std::vector<Partition> machines_;
  Blocks weakest_;              // blocks of the (k - dmin)-subsets' meets
  std::vector<Blocks> levels_;  // the meet of each subset prefix
  // split's per-block scratch, all zero between calls.
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> slot_;
  // separated_by's marks: the last weakest block that saw each candidate
  // block, in rounds numbered by epoch_.
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
};

}  // namespace ffsm
