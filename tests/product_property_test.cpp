// Cross-product properties beyond the unit tests: order invariance,
// nesting/flattening equivalence, and lockstep semantics across the whole
// catalog — the guarantees every downstream module silently assumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fsm/isomorphism.hpp"
#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

std::vector<Dfsm> random_system(const std::shared_ptr<Alphabet>& al,
                                std::uint32_t count, std::uint64_t seed) {
  std::vector<Dfsm> machines;
  for (std::uint32_t i = 0; i < count; ++i) {
    RandomDfsmSpec spec;
    spec.states = 3 + (seed + i) % 3;
    spec.num_events = 2;
    spec.seed = seed * 71 + i;
    machines.push_back(make_random_connected_dfsm(
        al, std::string("m").append(std::to_string(i)), spec));
  }
  return machines;
}

class ProductOrderSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProductOrderSweep, MachineOrderDoesNotChangeTheTop) {
  auto al = Alphabet::create();
  const std::vector<Dfsm> machines = random_system(al, 3, GetParam());
  std::vector<Dfsm> reversed(machines.rbegin(), machines.rend());
  const CrossProduct forward = reachable_cross_product(machines);
  const CrossProduct backward = reachable_cross_product(reversed);
  EXPECT_EQ(forward.top.size(), backward.top.size());
  EXPECT_TRUE(isomorphic(forward.top, backward.top));
}

TEST_P(ProductOrderSweep, NestedProductEqualsFlatProduct) {
  // R({A, B, C}) is isomorphic to R({R({A,B}).top-as-machine, C}) — the
  // product is associative up to isomorphism.
  auto al = Alphabet::create();
  const std::vector<Dfsm> machines = random_system(al, 3, GetParam());
  const CrossProduct flat = reachable_cross_product(machines);

  const std::vector<Dfsm> pair{machines[0], machines[1]};
  const CrossProduct inner = reachable_cross_product(pair, "inner");
  const std::vector<Dfsm> nested{inner.top, machines[2]};
  const CrossProduct outer = reachable_cross_product(nested);

  EXPECT_EQ(flat.top.size(), outer.top.size());
  EXPECT_TRUE(isomorphic(flat.top, outer.top));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProductOrderSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ProductCatalog, LockstepAcrossEveryTableRow) {
  // For every table row: 500 random events keep the top tuple equal to the
  // independently-run machines.
  for (const auto& row : make_results_table_rows()) {
    const CrossProduct cp = reachable_cross_product(row.machines);
    std::vector<EventId> support(cp.top.events().begin(),
                                 cp.top.events().end());
    Xoshiro256 rng(99);
    State t = cp.top.initial();
    std::vector<State> individual;
    for (const Dfsm& m : row.machines) individual.push_back(m.initial());
    for (int step = 0; step < 500; ++step) {
      const EventId e = support[rng.below(support.size())];
      t = cp.top.step(t, e);
      for (std::size_t i = 0; i < row.machines.size(); ++i)
        individual[i] = row.machines[i].step(individual[i], e);
      for (std::size_t i = 0; i < row.machines.size(); ++i)
        ASSERT_EQ(cp.tuples[t][i], individual[i])
            << row.label << " machine " << i << " step " << step;
    }
  }
}

TEST(ProductCatalog, EveryTupleIsDistinct) {
  for (const auto& row : make_results_table_rows()) {
    const CrossProduct cp = reachable_cross_product(row.machines);
    for (std::size_t i = 0; i < cp.tuples.size(); ++i)
      for (std::size_t j = i + 1; j < cp.tuples.size(); ++j)
        ASSERT_NE(cp.tuples[i], cp.tuples[j]) << row.label;
  }
}

TEST(ProductCatalog, ComponentAssignmentsAreOnto) {
  // Every machine state appears in some tuple (machines are reachable and
  // driven by the same stream).
  for (const auto& row : make_results_table_rows()) {
    const CrossProduct cp = reachable_cross_product(row.machines);
    for (std::uint32_t i = 0; i < cp.machine_count(); ++i) {
      const auto assignment = cp.component_assignment(i);
      std::vector<bool> seen(row.machines[i].size(), false);
      for (const auto s : assignment) seen[s] = true;
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](bool b) { return b; }))
          << row.label << " machine " << i;
    }
  }
}

TEST(ProductCatalog, SingletonProductIsIsomorphicCopy) {
  auto al = Alphabet::create();
  for (const Dfsm& m : {make_tcp(al), make_mesi(al), make_dhcp_client(al)}) {
    const std::vector<Dfsm> one{m};
    const CrossProduct cp = reachable_cross_product(one);
    EXPECT_TRUE(isomorphic(cp.top, m)) << m.name();
  }
}

TEST(ProductProperties, DisjointAlphabetsMultiplySizes) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_traffic_light(al));          // 3 states
  machines.push_back(make_sliding_window(al, "w", 2)); // 3 states
  machines.push_back(make_toggle_switch(al, "t"));     // 2 states
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.size(), 18u);
}

TEST(ProductProperties, SharedAlphabetCanOnlyShrink) {
  auto al = Alphabet::create();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<Dfsm> machines = random_system(al, 2, seed);
    const CrossProduct cp = reachable_cross_product(machines);
    EXPECT_LE(cp.top.size(), machines[0].size() * machines[1].size());
    EXPECT_GE(cp.top.size(),
              std::max(machines[0].size(), machines[1].size()));
  }
}

}  // namespace
}  // namespace ffsm
