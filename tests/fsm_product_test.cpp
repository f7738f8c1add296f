#include "fsm/product.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fsm/isomorphism.hpp"
#include "fsm/machine_catalog.hpp"
#include "fsm/random_dfsm.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

TEST(CrossProduct, EmptyInputRejected) {
  EXPECT_THROW((void)reachable_cross_product({}), ContractViolation);
}

TEST(CrossProduct, MismatchedAlphabetsRejected) {
  auto al1 = Alphabet::create();
  auto al2 = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al1, "c", 3, "0"));
  machines.push_back(make_mod_counter(al2, "d", 3, "1"));
  EXPECT_THROW((void)reachable_cross_product(machines), ContractViolation);
}

TEST(CrossProduct, SingleMachineIsItselfUpToIso) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines{make_mod_counter(al, "c", 5, "tick")};
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.size(), 5u);
  EXPECT_TRUE(isomorphic(cp.top, machines[0]));
}

TEST(CrossProduct, IndependentCountersMultiply) {
  // Counters over disjoint events: the product is the full grid.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "c0", 3, "0"));
  machines.push_back(make_mod_counter(al, "c1", 4, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.size(), 12u);
  EXPECT_EQ(cp.machine_count(), 2u);
}

TEST(CrossProduct, CorrelatedMachinesCollapse) {
  // Two identical counters over the same event never diverge: the reachable
  // product has only 3 states, not 9.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "x", 3, "e"));
  machines.push_back(make_mod_counter(al, "y", 3, "e"));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.size(), 3u);
}

TEST(CrossProduct, PaperExampleHasFourStates) {
  // Fig. 2: R({A, B}) has 4 states, not 9 — the pruning matters.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.size(), 4u);
}

TEST(CrossProduct, PaperExampleIsomorphicToCanonicalTop) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_TRUE(isomorphic(cp.top, make_paper_top(al)));
}

TEST(CrossProduct, TupleOfInitialIsInitial) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.initial(), 0u);
  EXPECT_EQ(cp.tuples[0][0], machines[0].initial());
  EXPECT_EQ(cp.tuples[0][1], machines[1].initial());
}

TEST(CrossProduct, LockstepSemantics) {
  // For any event sequence, the top's tuple equals the machines run
  // individually.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mesi(al));
  machines.push_back(make_mod_counter(al, "c", 3, "pr_wr"));
  const CrossProduct cp = reachable_cross_product(machines);

  Xoshiro256 rng(99);
  std::vector<EventId> all_events(cp.top.events().begin(),
                                  cp.top.events().end());
  State t = cp.top.initial();
  std::vector<State> individual{machines[0].initial(), machines[1].initial()};
  for (int step = 0; step < 300; ++step) {
    const EventId e = all_events[rng.below(all_events.size())];
    t = cp.top.step(t, e);
    for (std::size_t i = 0; i < machines.size(); ++i)
      individual[i] = machines[i].step(individual[i], e);
    ASSERT_EQ(cp.tuples[t][0], individual[0]) << "step " << step;
    ASSERT_EQ(cp.tuples[t][1], individual[1]) << "step " << step;
  }
}

TEST(CrossProduct, ComponentAssignmentProjectsTuples) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  const CrossProduct cp = reachable_cross_product(machines);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const auto assignment = cp.component_assignment(i);
    ASSERT_EQ(assignment.size(), cp.top.size());
    for (State t = 0; t < cp.top.size(); ++t)
      EXPECT_EQ(assignment[t], cp.tuples[t][i]);
  }
}

TEST(CrossProduct, ComponentAssignmentOutOfRangeThrows) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines{make_mod_counter(al, "c", 2, "e")};
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_THROW((void)cp.component_assignment(1), ContractViolation);
}

TEST(CrossProduct, TupleLabelUsesStateNames) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.tuple_label(0, machines), "{a0,b0}");
}

TEST(CrossProduct, TopSubscribesToUnionOfEvents) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "c0", 3, "0"));
  machines.push_back(make_toggle_switch(al, "t"));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.events().size(), 2u);
  EXPECT_TRUE(cp.top.subscribes(*al->find("0")));
  EXPECT_TRUE(cp.top.subscribes(*al->find("toggle")));
}

TEST(CrossProduct, SizeNeverExceedsProductOfSizes) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  for (int i = 0; i < 3; ++i) {
    RandomDfsmSpec spec;
    spec.states = 4;
    spec.num_events = 2;
    spec.seed = 100u + static_cast<std::uint64_t>(i);
    machines.push_back(make_random_connected_dfsm(
        al, std::string("r").append(std::to_string(i)), spec));
  }
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_LE(cp.top.size(), 64u);
  EXPECT_GE(cp.top.size(), 4u);  // at least as large as any component
}

TEST(CrossProduct, EveryMachineOfTableRowsEmbeds) {
  for (const auto& row : make_results_table_rows()) {
    const CrossProduct cp = reachable_cross_product(row.machines);
    std::uint64_t product = 1;
    for (const Dfsm& m : row.machines) product *= m.size();
    EXPECT_LE(cp.top.size(), product) << row.label;
    for (const Dfsm& m : row.machines)
      EXPECT_GE(cp.top.size(), m.size()) << row.label;
  }
}

}  // namespace
}  // namespace ffsm
