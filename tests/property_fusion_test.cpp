// Randomized property sweeps for the generation pipeline: for seeded random
// machine sets, Algorithm 2's output must satisfy every postcondition the
// paper proves (fusion property, machine count, closedness, minimality,
// monotone dmin). TEST_P keeps each seed/config a separate, shrinkable case.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fusion/fusion.hpp"
#include "fusion/generator.hpp"
#include "fusion/minimality.hpp"
#include "partition/closure.hpp"

namespace ffsm {
namespace {

struct Pipeline {
  std::shared_ptr<Alphabet> alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  CrossProduct cross;
  std::vector<Partition> originals;
};

Pipeline build_pipeline(std::uint32_t machine_count, std::uint32_t states,
                        std::uint64_t seed) {
  Pipeline p;
  for (std::uint32_t i = 0; i < machine_count; ++i) {
    RandomDfsmSpec spec;
    spec.states = states;
    spec.num_events = 2;
    spec.seed = seed * 97 + i;
    p.machines.push_back(make_random_connected_dfsm(
        p.alphabet, std::string("m").append(std::to_string(i)), spec));
  }
  p.cross = reachable_cross_product(p.machines);
  for (std::uint32_t i = 0; i < p.cross.machine_count(); ++i)
    p.originals.emplace_back(p.cross.component_assignment(i));
  return p;
}

using SweepParam = std::tuple<std::uint32_t,   // machines
                              std::uint32_t,   // states per machine
                              std::uint32_t,   // f
                              std::uint64_t>;  // seed

class FusionPipelineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FusionPipelineSweep, GeneratorPostconditions) {
  const auto [machine_count, states, f, seed] = GetParam();
  Pipeline p = build_pipeline(machine_count, states, seed);

  GenerateOptions options;
  options.f = f;
  const FusionResult result =
      generate_fusion(p.cross.top, p.originals, options);

  // 1. The output is an (f, m)-fusion (Definition 5).
  EXPECT_TRUE(
      is_fusion(p.cross.top.size(), p.originals, result.partitions, f));

  // 2. Machine count equals the Theorem-4 minimum.
  const FaultGraph g = FaultGraph::build(p.cross.top.size(), p.originals);
  EXPECT_EQ(result.partitions.size(), minimum_fusion_size(f, g.dmin()));

  // 3. Every fusion machine is a closed partition of the top.
  for (const Partition& q : result.partitions)
    EXPECT_TRUE(is_closed(p.cross.top, q));

  // 4. dmin rose to exactly f+1 when machines were added (each added
  //    machine contributes exactly +1 to the minimum).
  if (!result.partitions.empty() &&
      result.stats.dmin_before != FaultGraph::kInfinity) {
    EXPECT_EQ(result.stats.dmin_after, f + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusionPipelineSweep,
    ::testing::Combine(::testing::Values(2u, 3u), ::testing::Values(3u, 4u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

class FusionMinimalitySweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusionMinimalitySweep, GeneratorOutputIsMinimal) {
  // Theorem 5 on random inputs (kept small: minimality checking enumerates
  // lower covers of every fusion machine).
  Pipeline p = build_pipeline(2, 3, GetParam());
  GenerateOptions options;
  options.f = 1;
  const FusionResult result =
      generate_fusion(p.cross.top, p.originals, options);
  EXPECT_TRUE(is_minimal_fusion(p.cross.top, p.originals, result.partitions,
                                1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionMinimalitySweep,
                         ::testing::Range<std::uint64_t>(1, 16));

class SubsetTheoremSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubsetTheoremSweep, DroppingOneMachineDropsOneFault) {
  // Theorem 3: remove any one machine from the generated (2, m)-fusion and
  // a (1, m-1)-fusion remains.
  Pipeline p = build_pipeline(2, 4, GetParam());
  GenerateOptions options;
  options.f = 2;
  const FusionResult result =
      generate_fusion(p.cross.top, p.originals, options);
  if (result.partitions.size() < 2) return;  // inherently tolerant already
  for (std::size_t skip = 0; skip < result.partitions.size(); ++skip) {
    std::vector<Partition> reduced;
    for (std::size_t i = 0; i < result.partitions.size(); ++i)
      if (i != skip) reduced.push_back(result.partitions[i]);
    EXPECT_TRUE(is_fusion(p.cross.top.size(), p.originals, reduced, 1))
        << "skip " << skip;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetTheoremSweep,
                         ::testing::Range<std::uint64_t>(1, 16));

class ExistenceTheoremSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExistenceTheoremSweep, TheoremFourBothDirections) {
  // For random systems: m tops added to the originals give dmin + m; the
  // existence predicate must agree with brute reality.
  Pipeline p = build_pipeline(2, 3, GetParam());
  const std::uint32_t n = p.cross.top.size();
  FaultGraph g = FaultGraph::build(n, p.originals);
  const std::uint32_t d0 = g.dmin();
  if (d0 == FaultGraph::kInfinity) return;

  const Partition top_partition = Partition::identity(n);
  for (std::uint32_t m = 0; m <= 3; ++m) {
    for (std::uint32_t f = 0; f <= 5; ++f) {
      if (fusion_exists(f, m, d0)) {
        // Constructive witness: m copies of the top.
        const std::vector<Partition> tops(m, top_partition);
        EXPECT_TRUE(is_fusion(n, p.originals, tops, f))
            << "m=" << m << " f=" << f << " d0=" << d0;
      } else {
        // No fusion of size m can exist; even m tops fail.
        const std::vector<Partition> tops(m, top_partition);
        EXPECT_FALSE(is_fusion(n, p.originals, tops, f))
            << "m=" << m << " f=" << f << " d0=" << d0;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExistenceTheoremSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FusionPipeline, PoliciesAllProduceValidFusions) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Pipeline p = build_pipeline(2, 4, seed);
    for (const auto policy :
         {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
          DescentPolicy::kMostBlocks}) {
      GenerateOptions options;
      options.f = 2;
      options.policy = policy;
      const FusionResult result =
          generate_fusion(p.cross.top, p.originals, options);
      ASSERT_TRUE(is_fusion(p.cross.top.size(), p.originals,
                            result.partitions, 2))
          << "seed " << seed << " policy " << static_cast<int>(policy);
    }
  }
}

}  // namespace
}  // namespace ffsm
