#include "fusion/relaxed.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fusion/fusion.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;

TEST(RelaxedFusion, FullFractionMatchesAlgorithmTwoCount) {
  // coverage_fraction = 1 forces every backup to cover the whole weakest
  // set, so machine count equals Algorithm 2's minimum.
  const CanonicalExample ex;
  for (std::uint32_t f = 1; f <= 3; ++f) {
    RelaxedOptions options;
    options.f = f;
    options.coverage_fraction = 1.0;
    const RelaxedResult result =
        generate_relaxed_fusion(ex.top, ex.originals(), options);
    EXPECT_EQ(result.partitions.size(), minimum_fusion_size(f, 1))
        << "f=" << f;
    EXPECT_TRUE(is_fusion(4, ex.originals(), result.partitions, f));
  }
}

TEST(RelaxedFusion, CanonicalFEquals1FindsM6) {
  const CanonicalExample ex;
  RelaxedOptions options;
  options.f = 1;
  options.coverage_fraction = 1.0;
  const RelaxedResult result =
      generate_relaxed_fusion(ex.top, ex.originals(), options);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(result.partitions[0], ex.p_m6);
}

TEST(RelaxedFusion, SmallFractionStillProducesValidFusion) {
  const CanonicalExample ex;
  for (const double fraction : {0.25, 0.5, 0.75}) {
    for (std::uint32_t f = 1; f <= 3; ++f) {
      RelaxedOptions options;
      options.f = f;
      options.coverage_fraction = fraction;
      const RelaxedResult result =
          generate_relaxed_fusion(ex.top, ex.originals(), options);
      EXPECT_TRUE(is_fusion(4, ex.originals(), result.partitions, f))
          << "fraction " << fraction << " f " << f;
      EXPECT_GE(result.partitions.size(), minimum_fusion_size(f, 1));
    }
  }
}

TEST(RelaxedFusion, NoMachinesWhenInherentlyTolerant) {
  const CanonicalExample ex;
  const std::vector<Partition> originals{ex.p_a, ex.p_b, ex.p_m1};
  RelaxedOptions options;
  options.f = 1;
  options.coverage_fraction = 0.5;
  const RelaxedResult result =
      generate_relaxed_fusion(ex.top, originals, options);
  EXPECT_TRUE(result.partitions.empty());
}

TEST(RelaxedFusion, InvalidFractionRejected) {
  const CanonicalExample ex;
  RelaxedOptions options;
  options.coverage_fraction = 0.0;
  EXPECT_THROW(
      (void)generate_relaxed_fusion(ex.top, ex.originals(), options),
      ContractViolation);
  options.coverage_fraction = 1.5;
  EXPECT_THROW(
      (void)generate_relaxed_fusion(ex.top, ex.originals(), options),
      ContractViolation);
}

TEST(RelaxedFusion, StatsReflectWork) {
  const CanonicalExample ex;
  RelaxedOptions options;
  options.f = 2;
  options.coverage_fraction = 0.5;
  const RelaxedResult result =
      generate_relaxed_fusion(ex.top, ex.originals(), options);
  EXPECT_EQ(result.stats.machines_added, result.partitions.size());
  EXPECT_EQ(result.stats.dmin_before, 1u);
  EXPECT_GT(result.stats.dmin_after, 2u);
}

TEST(RelaxedFusion, SmallerFractionNeverProducesLargerMachinesThanTop) {
  // Sanity across the counter grid: all machines strictly below the top for
  // permissive fractions (the descent can always leave the identity).
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "A", 4, "0"));
  machines.push_back(make_mod_counter(al, "B", 4, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  std::vector<Partition> originals;
  for (std::uint32_t i = 0; i < 2; ++i)
    originals.emplace_back(cp.component_assignment(i));

  RelaxedOptions options;
  options.f = 1;
  options.coverage_fraction = 0.3;
  const RelaxedResult result =
      generate_relaxed_fusion(cp.top, originals, options);
  EXPECT_TRUE(is_fusion(cp.top.size(), originals, result.partitions, 1));
  for (const Partition& p : result.partitions)
    EXPECT_LT(p.block_count(), cp.top.size());
}

class RelaxedSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(RelaxedSweep, ValidFusionOnRandomSystems) {
  const auto [fraction, seed] = GetParam();
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = 4;
    spec.num_events = 2;
    spec.seed = seed * 53 + i;
    machines.push_back(make_random_connected_dfsm(
        al, std::string("m").append(std::to_string(i)), spec));
  }
  const CrossProduct cp = reachable_cross_product(machines);
  std::vector<Partition> originals;
  for (std::uint32_t i = 0; i < 2; ++i)
    originals.emplace_back(cp.component_assignment(i));

  RelaxedOptions options;
  options.f = 2;
  options.coverage_fraction = fraction;
  const RelaxedResult result =
      generate_relaxed_fusion(cp.top, originals, options);
  EXPECT_TRUE(is_fusion(cp.top.size(), originals, result.partitions, 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelaxedSweep,
    ::testing::Combine(::testing::Values(0.25, 0.5, 1.0),
                       ::testing::Range<std::uint64_t>(1, 11)));

}  // namespace
}  // namespace ffsm
