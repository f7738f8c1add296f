#include "fault/fault_graph.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace ffsm {

FaultGraph::FaultGraph(std::uint32_t n)
    : n_(n),
      weights_(static_cast<std::size_t>(n) * (n > 0 ? n - 1 : 0) / 2, 0),
      dmin_(weights_.empty() ? kInfinity : 0) {}

FaultGraph FaultGraph::build(std::uint32_t n,
                             std::span<const Partition> machines,
                             const FaultGraphOptions& options) {
  FaultGraph g(n);
  if (n < 2 || machines.empty()) {
    g.machines_ = static_cast<std::uint32_t>(machines.size());
    return g;
  }
  for (const Partition& p : machines) FFSM_EXPECTS(p.size() == n);

  // Parallelise over rows i: each (i, *) stripe of the triangle is written
  // by exactly one chunk, accumulating all machines, so the result is
  // deterministic and race-free. The node count and the weight array are
  // captured by value: read through a reference, a weight store could
  // change either, and the stripe loop would not vectorize.
  const std::size_t nodes = n;
  std::uint32_t* const weights = g.weights_.data();
  const auto rows = [=](std::size_t lo, std::size_t hi) {
    std::uint32_t* stripe = weights + row_offset(lo, nodes);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t len = nodes - i - 1;
      for (const Partition& p : machines) {
        const std::uint32_t* const row = p.assignment().data() + i;
        const std::uint32_t bi = row[0];
        for (std::size_t k = 0; k < len; ++k)
          stripe[k] += (row[k + 1] != bi) ? 1u : 0u;
      }
      stripe += len;
    }
  };
  if (options.parallel) {
    ParallelOptions popt;
    popt.pool = options.pool;
    popt.serial_threshold = 64;  // rows; each row is O(n * machines)
    parallel_for_chunked(0, nodes - 1, rows, popt);
  } else {
    rows(0, nodes - 1);
  }
  g.machines_ = static_cast<std::uint32_t>(machines.size());
  g.edges_examined_ +=
      static_cast<std::uint64_t>(machines.size()) * g.weights_.size();
  g.rescan_dmin();
  return g;
}

void FaultGraph::rescan_dmin() {
  const std::uint32_t* const weights = weights_.data();
  const std::size_t size = weights_.size();
  std::uint32_t new_min = kInfinity;
  for (std::size_t k = 0; k < size; ++k)
    new_min = std::min(new_min, weights[k]);
  dmin_ = new_min;
  edges_examined_ += size;
  weakest_valid_ = false;
}

std::uint32_t FaultGraph::add_separated(const Partition& p,
                                        std::uint32_t delta) {
  const std::size_t n = n_;
  const std::uint32_t* const a = p.assignment().data();
  std::uint32_t* stripe = weights_.data();
  std::uint32_t new_min = kInfinity;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::uint32_t* const row = a + i;
    const std::uint32_t bi = row[0];
    const std::size_t len = n - i - 1;
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint32_t w = stripe[k] + ((row[k + 1] != bi) ? delta : 0u);
      stripe[k] = w;
      new_min = std::min(new_min, w);
    }
    stripe += len;
  }
  return new_min;
}

void FaultGraph::add_machine(const Partition& p) {
  FFSM_EXPECTS(p.size() == n_);
  // Single delta pass: apply the +1s and re-derive dmin from the updated
  // weights as they stream by — dmin stays O(1) to read with no separate
  // scan. The weakest-edge list itself is derived lazily: hot loops that
  // only read dmin() between add/remove calls (the exhaustive DFS) must not
  // pay for materializing up to O(N^2) pairs per call.
  dmin_ = add_separated(p, 1u);
  edges_examined_ += weights_.size();
  weakest_valid_ = false;
  ++machines_;
}

void FaultGraph::remove_machine(const Partition& p) {
  FFSM_EXPECTS(p.size() == n_);
  FFSM_EXPECTS(machines_ > 0);
  // Every edge the machine separates must have weight to give back. Check
  // them all before writing any, so a machine that was never added leaves
  // the graph as it was.
  const std::size_t n = n_;
  const std::uint32_t* const a = p.assignment().data();
  const std::uint32_t* stripe = weights_.data();
  std::uint32_t underflow = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::uint32_t* const row = a + i;
    const std::uint32_t bi = row[0];
    const std::size_t len = n - i - 1;
    for (std::size_t k = 0; k < len; ++k)
      underflow |= (row[k + 1] != bi) & (stripe[k] == 0);
    stripe += len;
  }
  FFSM_EXPECTS(underflow == 0);
  dmin_ = add_separated(p, static_cast<std::uint32_t>(-1));
  edges_examined_ += weights_.size();
  weakest_valid_ = false;
  --machines_;
}

std::uint32_t FaultGraph::weight(std::uint32_t i, std::uint32_t j) const {
  FFSM_EXPECTS(i < n_ && j < n_ && i != j);
  if (i > j) std::swap(i, j);
  return weights_[edge_index(i, j)];
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
FaultGraph::weakest_edges() const {
  if (!weakest_valid_) {
    if (dmin_ == kInfinity) {
      weakest_.clear();
    } else {
      weakest_ = edges_with_weight(dmin_);
      edges_examined_ += weights_.size();  // the scan is real work: count it
    }
    weakest_valid_ = true;
  }
  return weakest_;
}

std::vector<std::size_t> FaultGraph::weight_histogram() const {
  std::vector<std::size_t> histogram(machines_ + 1, 0);
  for (const auto w : weights_) {
    FFSM_ASSERT(w <= machines_);
    ++histogram[w];
  }
  return histogram;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
FaultGraph::edges_with_weight(std::uint32_t w) const {
  // A counting pass sizes the result, then a row-by-row pass lists it.
  const std::uint32_t* const weights = weights_.data();
  const std::size_t size = weights_.size();
  std::size_t count = 0;
  for (std::size_t k = 0; k < size; ++k) count += (weights[k] == w) ? 1 : 0;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(count);
  const std::size_t n = n_;
  const std::uint32_t* stripe = weights;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t len = n - i - 1;
    for (std::size_t k = 0; k < len; ++k)
      if (stripe[k] == w)
        edges.emplace_back(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i + 1 + k));
    stripe += len;
  }
  return edges;
}

}  // namespace ffsm
