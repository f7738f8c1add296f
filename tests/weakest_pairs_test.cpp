// WeakestPairs against its definition, the fault graph: at every outer
// iteration of Algorithm 2 its dmin must equal FaultGraph::dmin(), and at
// every descent step its verdict on each lower-cover candidate must equal
// "separates every weakest edge". Covered: recover's four machines and the
// five catalog systems at f = 1-3, and 300 seeded random products.
#include "fault/weakest_pairs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/random_dfsm.hpp"
#include "partition/lower_cover.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::catalog_system;
using testing::component_partitions;
using testing::kCatalogSystemKinds;
using testing::pt;
using testing::recover_mix_machines;

static_assert(WeakestPairs::kInfinity == FaultGraph::kInfinity);

bool separates_all(const Partition& p, const FaultGraph& graph) {
  const auto& weakest = graph.weakest_edges();
  return std::all_of(weakest.begin(), weakest.end(), [&](const auto& e) {
    return p.separates(e.first, e.second);
  });
}

/// Runs Algorithm 2 (fewest blocks first) on `top` from `originals` up to
/// f, checking the incremental WeakestPairs, and one built afresh over the
/// same machines, against a fault graph rebuilt at every outer iteration.
/// Returns the number of candidates checked.
std::size_t expect_matches_fault_graph(const Dfsm& top,
                                       const std::vector<Partition>& originals,
                                       std::uint32_t f) {
  const std::uint32_t n = top.size();
  std::vector<Partition> machines = originals;
  WeakestPairs kept(n, originals);
  std::size_t checked = 0;
  for (;;) {
    const FaultGraph graph = FaultGraph::build(n, machines);
    WeakestPairs fresh(n, machines);
    EXPECT_EQ(kept.dmin(), graph.dmin());
    EXPECT_EQ(fresh.dmin(), graph.dmin());
    if (graph.dmin() == FaultGraph::kInfinity || graph.dmin() > f ||
        ::testing::Test::HasFailure())
      return checked;

    Partition current = Partition::identity(n);
    EXPECT_TRUE(kept.separated_by(current));
    for (;;) {
      const std::vector<Partition> cover = lower_cover(top, current);
      const Partition* next = nullptr;
      for (const Partition& c : cover) {
        const bool expected = separates_all(c, graph);
        EXPECT_EQ(kept.separated_by(c), expected);
        EXPECT_EQ(fresh.separated_by(c), expected);
        ++checked;
        if (expected &&
            (next == nullptr || c.block_count() < next->block_count()))
          next = &c;
      }
      if (next == nullptr) break;
      current = *next;
    }
    kept.add_machine(current);
    machines.push_back(std::move(current));
  }
}

TEST(WeakestPairs, MatchesTheFaultGraphOnRecoversMachines) {
  const auto alphabet = Alphabet::create();
  const CrossProduct cp =
      reachable_cross_product(recover_mix_machines(alphabet));
  const auto originals = component_partitions(cp);
  for (std::uint32_t f = 1; f <= 3; ++f) {
    SCOPED_TRACE(::testing::Message() << "f=" << f);
    EXPECT_GT(expect_matches_fault_graph(cp.top, originals, f), 0u);
  }
}

TEST(WeakestPairs, MatchesTheFaultGraphOnCatalogSystems) {
  for (std::uint32_t kind = 0; kind < kCatalogSystemKinds; ++kind) {
    const auto alphabet = Alphabet::create();
    const CrossProduct cp =
        reachable_cross_product(catalog_system(kind, alphabet));
    const auto originals = component_partitions(cp);
    for (std::uint32_t f = 1; f <= 3; ++f) {
      SCOPED_TRACE(::testing::Message() << "kind " << kind << " f=" << f);
      EXPECT_GT(expect_matches_fault_graph(cp.top, originals, f), 0u);
    }
  }
}

TEST(WeakestPairs, MatchesTheFaultGraphOnRandomProducts) {
  // 2-3 machines of 3-12 states over 2-4 events, f = 1-3.
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto machine_count = static_cast<std::uint32_t>(2 + seed % 2);
    const auto states = static_cast<std::uint32_t>(3 + (seed / 2) % 10);
    const auto events = static_cast<std::uint32_t>(2 + (seed / 20) % 3);
    const auto f = static_cast<std::uint32_t>(1 + seed % 3);
    const auto alphabet = Alphabet::create();
    std::vector<Dfsm> machines;
    for (std::uint32_t i = 0; i < machine_count; ++i) {
      RandomDfsmSpec spec;
      spec.states = states;
      spec.num_events = events;
      spec.seed = seed * 131 + i;
      machines.push_back(make_random_connected_dfsm(
          alphabet, std::string("m").append(std::to_string(i)), spec));
    }
    const CrossProduct cp = reachable_cross_product(machines);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    checked += expect_matches_fault_graph(cp.top, component_partitions(cp), f);
    if (HasFailure()) return;
  }
  EXPECT_GT(checked, 0u);
}

TEST(WeakestPairs, EdgeCases) {
  // One state: no pair to separate, whatever the machines.
  EXPECT_EQ(WeakestPairs(1, std::vector<Partition>{}).dmin(),
            WeakestPairs::kInfinity);
  EXPECT_EQ(WeakestPairs(1, std::vector<Partition>{pt({0})}).dmin(),
            WeakestPairs::kInfinity);

  // No machines: every pair at distance 0, and only the identity
  // separates them all.
  WeakestPairs none(4, std::vector<Partition>{});
  EXPECT_EQ(none.dmin(), 0u);
  EXPECT_FALSE(none.separated_by(pt({0, 1, 2, 2})));
  EXPECT_TRUE(none.separated_by(Partition::identity(4)));
  none.add_machine(Partition::identity(4));
  EXPECT_EQ(none.dmin(), 1u);

  // The same machine twice: its shared blocks are the weakest pairs.
  const std::vector<Partition> twice{pt({0, 0, 1, 1}), pt({0, 0, 1, 1}),
                                     pt({0, 1, 0, 1})};
  WeakestPairs dup(4, twice);
  EXPECT_EQ(dup.dmin(), FaultGraph::build(4, twice).dmin());
  EXPECT_EQ(dup.dmin(), 1u);
  EXPECT_FALSE(dup.separated_by(pt({0, 0, 1, 1})));
  EXPECT_TRUE(dup.separated_by(pt({0, 1, 1, 0})));

  // A machine the weakest pairs are not separated by is refused.
  EXPECT_THROW(dup.add_machine(pt({0, 0, 1, 2})), ContractViolation);
  EXPECT_THROW((void)dup.separated_by(pt({0, 1, 2})), ContractViolation);
}

}  // namespace
}  // namespace ffsm
