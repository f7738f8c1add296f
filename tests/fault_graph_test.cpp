#include "fault/fault_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fsm/random_dfsm.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::pt;

TEST(FaultGraph, EmptyGraphHasInfiniteDmin) {
  const FaultGraph g(1);
  EXPECT_EQ(g.dmin(), FaultGraph::kInfinity);
  EXPECT_TRUE(g.weakest_edges().empty());
}

TEST(FaultGraph, NoMachinesMeansZeroWeights) {
  const FaultGraph g(4);
  EXPECT_EQ(g.dmin(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = i + 1; j < 4; ++j) EXPECT_EQ(g.weight(i, j), 0u);
}

TEST(FaultGraph, SingleMachineWeights) {
  // G({A}) per Fig. 4(i): edge (t0,t3) weighs 0, every other edge 1.
  const CanonicalExample ex;
  const std::vector<Partition> machines{ex.p_a};
  const FaultGraph g = FaultGraph::build(4, machines);
  EXPECT_EQ(g.weight(0, 3), 0u);
  EXPECT_EQ(g.weight(0, 1), 1u);
  EXPECT_EQ(g.weight(0, 2), 1u);
  EXPECT_EQ(g.weight(1, 2), 1u);
  EXPECT_EQ(g.weight(1, 3), 1u);
  EXPECT_EQ(g.weight(2, 3), 1u);
  EXPECT_EQ(g.dmin(), 0u);
}

TEST(FaultGraph, WeightIsSymmetric) {
  const CanonicalExample ex;
  const std::vector<Partition> machines{ex.p_a, ex.p_b};
  const FaultGraph g = FaultGraph::build(4, machines);
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_EQ(g.weight(i, j), g.weight(j, i));
      }
    }
  }
}

TEST(FaultGraph, SelfEdgeThrows) {
  const FaultGraph g(4);
  EXPECT_THROW((void)g.weight(2, 2), ContractViolation);
}

TEST(FaultGraph, AddMachineIncrementsSeparatedPairs) {
  const CanonicalExample ex;
  FaultGraph g(4);
  g.add_machine(ex.p_a);
  EXPECT_EQ(g.machine_count(), 1u);
  EXPECT_EQ(g.weight(0, 1), 1u);
  EXPECT_EQ(g.weight(0, 3), 0u);
  g.add_machine(ex.p_b);
  EXPECT_EQ(g.machine_count(), 2u);
  EXPECT_EQ(g.weight(0, 3), 1u);  // B separates t0 from t3
  EXPECT_EQ(g.weight(0, 1), 2u);
}

TEST(FaultGraph, RemoveUndoesAdd) {
  const CanonicalExample ex;
  FaultGraph g(4);
  g.add_machine(ex.p_a);
  g.add_machine(ex.p_m1);
  g.remove_machine(ex.p_m1);
  const std::vector<Partition> reference{ex.p_a};
  const FaultGraph expected = FaultGraph::build(4, reference);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = i + 1; j < 4; ++j)
      EXPECT_EQ(g.weight(i, j), expected.weight(i, j));
  EXPECT_EQ(g.machine_count(), 1u);
}

TEST(FaultGraph, RemoveFromEmptyThrows) {
  const CanonicalExample ex;
  FaultGraph g(4);
  EXPECT_THROW(g.remove_machine(ex.p_a), ContractViolation);
}

TEST(FaultGraph, FailedRemoveLeavesTheGraphUnchanged) {
  // {0}{1}{2,3} leaves edge (2,3) at weight 0, and the identity, never
  // added, separates it: the remove must throw before it writes a weight.
  FaultGraph g(4);
  g.add_machine(pt({0, 1, 2, 2}));
  const std::uint64_t examined = g.edges_examined();
  EXPECT_THROW(g.remove_machine(Partition::identity(4)), ContractViolation);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = i + 1; j < 4; ++j)
      EXPECT_EQ(g.weight(i, j), (i == 2 && j == 3) ? 0u : 1u)
          << "edge " << i << "," << j;
  EXPECT_EQ(g.dmin(), 0u);
  EXPECT_EQ(g.machine_count(), 1u);
  EXPECT_EQ(g.edges_examined(), examined);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> weakest{{2, 3}};
  EXPECT_EQ(g.weakest_edges(), weakest);
}

TEST(FaultGraph, MismatchedPartitionSizeThrows) {
  FaultGraph g(4);
  EXPECT_THROW(g.add_machine(pt({0, 1})), ContractViolation);
}

TEST(FaultGraph, WeakestEdgesOfCanonicalPair) {
  // G({A,B}): weakest edges are (t0,t3) and (t2,t3) with weight 1.
  const CanonicalExample ex;
  const std::vector<Partition> machines{ex.p_a, ex.p_b};
  const FaultGraph g = FaultGraph::build(4, machines);
  EXPECT_EQ(g.dmin(), 1u);
  const auto weakest = g.weakest_edges();
  ASSERT_EQ(weakest.size(), 2u);
  EXPECT_EQ(weakest[0], (std::pair<std::uint32_t, std::uint32_t>{0, 3}));
  EXPECT_EQ(weakest[1], (std::pair<std::uint32_t, std::uint32_t>{2, 3}));
}

TEST(FaultGraph, EdgesWithWeightFiltersExactly) {
  const CanonicalExample ex;
  const std::vector<Partition> machines{ex.p_a, ex.p_b};
  const FaultGraph g = FaultGraph::build(4, machines);
  EXPECT_EQ(g.edges_with_weight(2).size(), 4u);
  EXPECT_EQ(g.edges_with_weight(1).size(), 2u);
  EXPECT_TRUE(g.edges_with_weight(3).empty());
}

TEST(FaultGraph, TopContributesOneEverywhere) {
  const CanonicalExample ex;
  FaultGraph g(4);
  g.add_machine(ex.p_top);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = i + 1; j < 4; ++j) EXPECT_EQ(g.weight(i, j), 1u);
}

TEST(FaultGraph, BottomContributesNothing) {
  const CanonicalExample ex;
  FaultGraph g(4);
  g.add_machine(ex.p_bottom);
  EXPECT_EQ(g.dmin(), 0u);
  EXPECT_EQ(g.weight(0, 1), 0u);
}

TEST(FaultGraph, BuildMatchesIncrementalConstruction) {
  // Property: build(machines) == add_machine over each, for random inputs.
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.below(30));
    std::vector<Partition> machines;
    const auto count = 1 + rng.below(6);
    for (std::uint64_t k = 0; k < count; ++k) {
      std::vector<std::uint32_t> assignment(n);
      const auto blocks = 1 + rng.below(n);
      for (auto& a : assignment)
        a = static_cast<std::uint32_t>(rng.below(blocks));
      machines.emplace_back(std::move(assignment));
    }
    const FaultGraph built = FaultGraph::build(n, machines);
    FaultGraph incremental(n);
    for (const auto& p : machines) incremental.add_machine(p);
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = i + 1; j < n; ++j)
        ASSERT_EQ(built.weight(i, j), incremental.weight(i, j))
            << "trial " << trial;
  }
}

TEST(FaultGraph, ParallelAndSerialBuildsAgree) {
  Xoshiro256 rng(17);
  const std::uint32_t n = 200;
  std::vector<Partition> machines;
  for (int k = 0; k < 8; ++k) {
    std::vector<std::uint32_t> assignment(n);
    for (auto& a : assignment)
      a = static_cast<std::uint32_t>(rng.below(10));
    machines.emplace_back(std::move(assignment));
  }
  FaultGraphOptions serial;
  serial.parallel = false;
  FaultGraphOptions parallel;
  parallel.parallel = true;
  const FaultGraph gs = FaultGraph::build(n, machines, serial);
  const FaultGraph gp = FaultGraph::build(n, machines, parallel);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j)
      ASSERT_EQ(gs.weight(i, j), gp.weight(i, j));
}

TEST(FaultGraph, WeightNeverExceedsMachineCount) {
  const CanonicalExample ex;
  const std::vector<Partition> machines{ex.p_a, ex.p_b, ex.p_m1, ex.p_m2};
  const FaultGraph g = FaultGraph::build(4, machines);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = i + 1; j < 4; ++j)
      EXPECT_LE(g.weight(i, j), machines.size());
}

/// A random partition of n elements: usually a random number of blocks,
/// sometimes the identity or a single block.
Partition random_machine(std::uint32_t n, Xoshiro256& rng) {
  switch (rng.below(8)) {
    case 0:
      return Partition::identity(n);
    case 1:
      return Partition::single_block(n);
    default: {
      std::vector<std::uint32_t> assignment(n);
      const auto blocks = 1 + rng.below(n);
      for (auto& a : assignment)
        a = static_cast<std::uint32_t>(rng.below(blocks));
      return Partition(std::move(assignment));
    }
  }
}

/// `g` against Definition 3, computed from Partition::separates alone:
/// every weight, dmin(), weakest_edges() in (i, j) lexicographic order, and
/// the edges_examined() a first and a memoized weakest-edge read add.
void expect_matches_definition(const FaultGraph& g, std::uint32_t n,
                               const std::vector<Partition>& machines) {
  ASSERT_EQ(g.node_count(), n);
  ASSERT_EQ(g.machine_count(), machines.size());
  std::uint32_t dmin = FaultGraph::kInfinity;
  std::vector<std::uint32_t> weights;
  std::size_t wrong = 0;
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) {
      std::uint32_t w = 0;
      for (const Partition& p : machines) w += p.separates(i, j) ? 1u : 0u;
      wrong += (g.weight(i, j) != w) ? 1 : 0;
      weights.push_back(w);
      dmin = std::min(dmin, w);
    }
  EXPECT_EQ(wrong, 0u) << "edges of the wrong weight";
  EXPECT_EQ(g.dmin(), dmin);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> weakest;
  std::size_t k = 0;
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j)
      if (weights[k++] == dmin) weakest.emplace_back(i, j);
  const std::uint64_t before = g.edges_examined();
  EXPECT_EQ(g.weakest_edges(), weakest);
  const std::uint64_t scan = dmin == FaultGraph::kInfinity ? 0 : k;
  EXPECT_EQ(g.edges_examined(), before + scan);
  EXPECT_EQ(g.weakest_edges(), weakest);
  EXPECT_EQ(g.edges_examined(), before + scan);  // memoized
}

TEST(FaultGraph, MatchesTheDefinitionOnRandomGraphs) {
  // Up to 300 nodes: rows long enough for whole vector bodies and
  // remainders, and enough rows for build to split into parallel chunks.
  // Each graph is built serially and on a pool, then driven through random
  // adds and removes; every state must equal the definition.
  Xoshiro256 rng(29);
  ThreadPool pool(3);
  for (int trial = 0; trial < 24; ++trial) {
    auto n = static_cast<std::uint32_t>(trial);
    if (trial >= 4) n = static_cast<std::uint32_t>(2 + rng.below(299));
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n " << n);
    std::vector<Partition> machines;
    if (n > 0) {
      const auto count = rng.below(5);
      for (std::uint64_t m = 0; m < count; ++m)
        machines.push_back(random_machine(n, rng));
    }
    const std::uint64_t edges = n < 2 ? 0 : std::uint64_t{n} * (n - 1) / 2;
    const std::uint64_t build_examined =
        machines.empty() ? 0 : (machines.size() + 1) * edges;

    const FaultGraphOptions on_caller{.pool = nullptr, .parallel = false};
    const FaultGraphOptions on_pool{.pool = &pool, .parallel = true};
    const FaultGraph serial = FaultGraph::build(n, machines, on_caller);
    EXPECT_EQ(serial.edges_examined(), build_examined);
    expect_matches_definition(serial, n, machines);
    FaultGraph g = FaultGraph::build(n, machines, on_pool);
    EXPECT_EQ(g.edges_examined(), build_examined);
    expect_matches_definition(g, n, machines);
    if (n == 0) continue;

    for (int step = 0; step < 6; ++step) {
      const std::uint64_t before = g.edges_examined();
      if (!machines.empty() && rng.below(2) == 0) {
        const std::size_t victim = rng.below(machines.size());
        g.remove_machine(machines[victim]);
        machines.erase(machines.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        machines.push_back(random_machine(n, rng));
        g.add_machine(machines.back());
      }
      EXPECT_EQ(g.edges_examined(), before + edges);
      expect_matches_definition(g, n, machines);
    }
  }
}

TEST(FaultGraph, DminAndWeakestEdgesMaintainedAcrossAddRemove) {
  const CanonicalExample ex;
  FaultGraph g = FaultGraph::build(4, ex.originals());
  const std::uint32_t dmin_before = g.dmin();
  const auto weakest_before = g.weakest_edges();

  g.add_machine(ex.p_m1);
  // The delta pass must agree with a from-scratch build at every step.
  const FaultGraph fresh =
      FaultGraph::build(4, std::vector<Partition>{ex.p_a, ex.p_b, ex.p_m1});
  EXPECT_EQ(g.dmin(), fresh.dmin());
  EXPECT_EQ(g.weakest_edges(), fresh.weakest_edges());

  g.remove_machine(ex.p_m1);
  EXPECT_EQ(g.dmin(), dmin_before);
  EXPECT_EQ(g.weakest_edges(), weakest_before);
}

TEST(FaultGraph, EdgesExaminedCountsBuildAndDeltas) {
  const CanonicalExample ex;
  FaultGraph g = FaultGraph::build(4, ex.originals());
  // (2 machine passes + 1 dmin rescan) x C(4,2) edges.
  EXPECT_EQ(g.edges_examined(), 3u * 6u);
  g.add_machine(ex.p_m1);
  EXPECT_EQ(g.edges_examined(), 3u * 6u + 6u);
  g.remove_machine(ex.p_m1);
  EXPECT_EQ(g.edges_examined(), 3u * 6u + 12u);
  // The lazy weakest-edge derivation is one more counted O(E) scan,
  // memoized until the next mutation.
  (void)g.weakest_edges();
  EXPECT_EQ(g.edges_examined(), 3u * 6u + 18u);
  (void)g.weakest_edges();
  EXPECT_EQ(g.edges_examined(), 3u * 6u + 18u);
}

TEST(FaultGraph, WeakestEdgesInLexicographicOrder) {
  const CanonicalExample ex;
  FaultGraph g = FaultGraph::build(4, ex.originals());
  // The memoized derivation must produce (i, j) lexicographic order both
  // after build and after delta updates — descent determinism depends on
  // it.
  auto check_sorted = [](const auto& edges) {
    for (std::size_t k = 1; k < edges.size(); ++k)
      EXPECT_LT(edges[k - 1], edges[k]);
  };
  check_sorted(g.weakest_edges());
  g.add_machine(ex.p_m1);
  check_sorted(g.weakest_edges());
}

}  // namespace
}  // namespace ffsm
