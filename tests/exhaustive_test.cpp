#include "fusion/exhaustive.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fusion/fusion.hpp"
#include "fusion/generator.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;

TEST(Exhaustive, CanonicalOneFaultOptimumIsM6) {
  // The cheapest (1,1)-fusion of {A,B} in the whole lattice is the 2-state
  // M6 — exactly what the greedy finds.
  const CanonicalExample ex;
  ExhaustiveOptions options;
  options.f = 1;
  const ExhaustiveResult result =
      find_optimal_fusion(ex.top, ex.originals(), options);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(result.partitions[0], ex.p_m6);
  EXPECT_EQ(result.total_states, 2u);
}

TEST(Exhaustive, CanonicalTwoFaultOptimumTotalsSix) {
  // For f=2 both {M1,M2} (3+3) and the greedy's {M6,TOP} (2+4) total 6
  // states; exhaustive search confirms 6 is optimal.
  const CanonicalExample ex;
  ExhaustiveOptions options;
  options.f = 2;
  const ExhaustiveResult result =
      find_optimal_fusion(ex.top, ex.originals(), options);
  ASSERT_EQ(result.partitions.size(), 2u);
  EXPECT_EQ(result.total_states, 6u);
  EXPECT_TRUE(is_fusion(4, ex.originals(), result.partitions, 2));
}

TEST(Exhaustive, InherentToleranceNeedsNothing) {
  const CanonicalExample ex;
  const std::vector<Partition> originals{ex.p_a, ex.p_b, ex.p_m1};
  ExhaustiveOptions options;
  options.f = 1;
  const ExhaustiveResult result =
      find_optimal_fusion(ex.top, originals, options);
  EXPECT_TRUE(result.partitions.empty());
  EXPECT_EQ(result.total_states, 0u);
}

TEST(Exhaustive, MultisetsAreConsidered) {
  // For f=3 with dmin(A)=1, m=3; feasible solutions may repeat a machine.
  // Whatever is returned must be a valid (3,3)-fusion.
  const CanonicalExample ex;
  ExhaustiveOptions options;
  options.f = 3;
  const ExhaustiveResult result =
      find_optimal_fusion(ex.top, ex.originals(), options);
  ASSERT_EQ(result.partitions.size(), 3u);
  EXPECT_TRUE(is_fusion(4, ex.originals(), result.partitions, 3));
}

TEST(Exhaustive, GreedyNeverBeatsOptimal) {
  // Sanity of the yardstick: on random systems the greedy's total state
  // count is >= the exhaustive optimum, and both are valid fusions.
  auto al = Alphabet::create();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::vector<Dfsm> machines;
    for (std::uint32_t i = 0; i < 2; ++i) {
      RandomDfsmSpec spec;
      spec.states = 4;
      spec.num_events = 2;
      spec.seed = seed * 17 + i;
      machines.push_back(make_random_connected_dfsm(
          al, std::string("m").append(std::to_string(i)), spec));
    }
    const CrossProduct cp = reachable_cross_product(machines);
    std::vector<Partition> originals;
    for (std::uint32_t i = 0; i < 2; ++i)
      originals.emplace_back(cp.component_assignment(i));

    GenerateOptions greedy_options;
    greedy_options.f = 1;
    const FusionResult greedy =
        generate_fusion(cp.top, originals, greedy_options);
    std::uint64_t greedy_total = 0;
    for (const Partition& p : greedy.partitions)
      greedy_total += p.block_count();

    ExhaustiveOptions options;
    options.f = 1;
    options.max_lattice = 4096;
    const ExhaustiveResult optimal =
        find_optimal_fusion(cp.top, originals, options);
    EXPECT_TRUE(
        is_fusion(cp.top.size(), originals, optimal.partitions, 1));
    EXPECT_LE(optimal.total_states, greedy_total) << "seed " << seed;
  }
}

TEST(Exhaustive, SubsetLimitGuards) {
  const CanonicalExample ex;
  ExhaustiveOptions options;
  options.f = 2;
  options.max_subsets = 1;  // absurdly low
  EXPECT_THROW((void)find_optimal_fusion(ex.top, ex.originals(), options),
               ContractViolation);
}

TEST(Exhaustive, LatticeLimitGuards) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "A", 5, "0"));
  machines.push_back(make_mod_counter(al, "B", 5, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  std::vector<Partition> originals;
  for (std::uint32_t i = 0; i < 2; ++i)
    originals.emplace_back(cp.component_assignment(i));
  ExhaustiveOptions options;
  options.f = 1;
  options.max_lattice = 2;  // 25-state top has more closed partitions
  EXPECT_THROW((void)find_optimal_fusion(cp.top, originals, options),
               ContractViolation);
}

}  // namespace
}  // namespace ffsm
