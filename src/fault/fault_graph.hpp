// Fault graphs (paper Definition 3 and 4).
//
// For a top machine T with N states and a set of machines M (each a closed
// partition of T's states), the fault graph G(T, M) is the complete graph on
// T's states whose edge (ti, tj) weighs the number of machines separating ti
// from tj. The minimum edge weight dmin determines fault tolerance:
//   * Theorem 1: M tolerates f crash faults      iff dmin > f
//   * Theorem 2: M tolerates f Byzantine faults  iff dmin > 2f
//
// Weights live in a flat upper-triangular array; machines can be added and
// removed incrementally (+-1 per separated pair), which Algorithm 2's outer
// loop exploits. dmin is maintained as a delta update in the same pass that
// touches the weights (paper Lemma 1: adding a machine moves dmin by at
// most one), so it reads in O(1); the weakest-edge set is derived by one
// further O(E) scan on first use after a mutation and then memoized,
// keeping add/remove allocation-free for hot loops that only poll dmin
// (exhaustive DFS). All passes — build, add, remove, and the lazy scans —
// are counted by edges_examined() for the incremental-vs-rebuild ablation.
//
// Every pass walks the triangle row by row, through a pointer to the row's
// first weight and a size_t row length computed from the node count read
// into a local. The weights and the member n_ are both 32-bit unsigned, so
// a loop bounded by n_ must reload it after every weight store, and GCC
// then vectorizes none of these loops. With the local, the build, add and
// remove passes (with their dmin minimum), the dmin rescan, remove's check
// pass and the weakest-edge counting pass all vectorize at -O3.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "partition/partition.hpp"
#include "util/parallel.hpp"

namespace ffsm {

/// Options for FaultGraph::build.
struct FaultGraphOptions {
  ThreadPool* pool = nullptr;
  bool parallel = true;
};

class FaultGraph {
 public:
  /// Edge weight meaning "no pair exists" (top has < 2 states): dmin() of an
  /// empty edge set is infinite — a single-state system needs no
  /// distinguishing machines.
  static constexpr std::uint32_t kInfinity =
      std::numeric_limits<std::uint32_t>::max();

  FaultGraph() = default;

  /// Graph over `n` top states with zero weights (no machines yet).
  explicit FaultGraph(std::uint32_t n);

  /// Graph with all `machines` accumulated. Each partition must cover n
  /// elements.
  [[nodiscard]] static FaultGraph build(
      std::uint32_t n, std::span<const Partition> machines,
      const FaultGraphOptions& options = {});

  /// Number of top states (nodes).
  [[nodiscard]] std::uint32_t node_count() const noexcept { return n_; }

  /// Number of machines accumulated.
  [[nodiscard]] std::uint32_t machine_count() const noexcept {
    return machines_;
  }

  /// +1 on every edge the machine separates; dmin is re-derived in the same
  /// single pass (delta update, no extra scan, no allocation).
  void add_machine(const Partition& p);

  /// -1 on every edge the machine separates (exact inverse of add_machine;
  /// the same partition must previously have been added). Throws
  /// ContractViolation, leaving the graph unchanged, if some edge the
  /// machine separates already weighs 0.
  void remove_machine(const Partition& p);

  /// Edge weight = the paper's distance d(ti, tj). Requires i != j.
  [[nodiscard]] std::uint32_t weight(std::uint32_t i, std::uint32_t j) const;

  /// Minimum edge weight; kInfinity when fewer than two nodes exist. O(1):
  /// maintained incrementally by add/remove_machine and build.
  [[nodiscard]] std::uint32_t dmin() const noexcept { return dmin_; }

  /// All edges of weight dmin() — the "weakest edges" driving Algorithm 2.
  /// Derived on first call after a mutation by one scan, counted once in
  /// edges_examined() (a counting pass, then a listing pass), then
  /// memoized; (i, j) lexicographic order. The lazy memo writes mutable
  /// state, so unlike the other const members this is NOT safe to call
  /// concurrently on a shared graph.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  weakest_edges() const;

  /// Cumulative number of edge-weight slots examined by build / add /
  /// remove / lazy weakest-edge scans since construction — the work metric
  /// for the incremental-vs-rebuild ablation (bench_ablation_incremental).
  [[nodiscard]] std::uint64_t edges_examined() const noexcept {
    return edges_examined_;
  }

  /// All edges with the given weight.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  edges_with_weight(std::uint32_t w) const;

  /// histogram[w] = number of edges of weight w, for w in 0..machine_count.
  /// Useful diagnostics: the mass near dmin tells how hard the next fusion
  /// machine has to work.
  [[nodiscard]] std::vector<std::size_t> weight_histogram() const;

 private:
  /// Index of edge (i, i + 1), the first weight of row i, in the
  /// row-major upper triangle of an n-node graph.
  [[nodiscard]] static std::size_t row_offset(std::size_t i,
                                              std::size_t n) noexcept {
    return i * n - i * (i + 1) / 2;
  }

  [[nodiscard]] std::size_t edge_index(std::uint32_t i,
                                       std::uint32_t j) const noexcept {
    // i < j assumed.
    return row_offset(i, n_) + (j - i - 1);
  }

  /// Adds `delta` (1, or -1 modulo 2^32) to every edge `p` separates and
  /// returns the new minimum weight.
  std::uint32_t add_separated(const Partition& p, std::uint32_t delta);

  /// Recomputes dmin_ with one serial scan and invalidates the weakest-edge
  /// cache; used after bulk weight writes (build).
  void rescan_dmin();

  std::uint32_t n_ = 0;
  std::uint32_t machines_ = 0;
  std::vector<std::uint32_t> weights_;  // n*(n-1)/2 entries
  std::uint32_t dmin_ = kInfinity;
  // mutable: the lazy weakest-edge derivation is counted too.
  mutable std::uint64_t edges_examined_ = 0;
  // Weakest-edge memo, (i, j) lexicographic; re-derived lazily after any
  // mutation (add/remove/build invalidate it).
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> weakest_;
  mutable bool weakest_valid_ = false;
};

}  // namespace ffsm
