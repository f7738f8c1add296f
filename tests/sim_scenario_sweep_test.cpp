// Broad end-to-end scenario sweeps: every catalog system x fault mix x seed
// runs through the full pipeline (cross product -> Algorithm 2 -> event
// stream -> fault injection -> Algorithm 3 -> verification). These are the
// library's "does the whole thing actually work" tests, complementing the
// per-module suites.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/system.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

std::vector<Dfsm> catalog_system(std::uint32_t kind) {
  return testing::catalog_system(kind, Alphabet::create());
}

using ScenarioParam = std::tuple<std::uint32_t,   // system kind
                                 std::uint32_t,   // crashes
                                 std::uint32_t,   // byzantine
                                 std::uint64_t>;  // seed

class ScenarioSweep : public ::testing::TestWithParam<ScenarioParam> {};

TEST_P(ScenarioSweep, InjectRecoverVerify) {
  const auto [kind, crashes, byzantine, seed] = GetParam();
  // Capacity: f crash faults need dmin > f; b Byzantine need dmin > 2b; a
  // mixed load of c crashes + b liars is safe when c + 2b <= f.
  const std::uint32_t f = crashes + 2 * byzantine;

  std::vector<Dfsm> machines = catalog_system(kind);
  FusedSystemOptions options;
  options.f = f;
  FusedSystem system(std::move(machines), options);

  FaultPlanSpec spec;
  spec.server_count = system.servers().size();
  spec.steps = 80;
  spec.crashes = crashes;
  spec.byzantine = byzantine;
  spec.seed = seed;
  const auto plan = plan_faults(spec);

  std::vector<EventId> support(system.top().events().begin(),
                               system.top().events().end());
  RandomEventSource events(support, 80, seed * 7 + 1);
  const ScenarioResult result = run_scenario(
      system, events, plan, ByzantineStrategy::kRandomState, seed * 13 + 5);

  EXPECT_EQ(result.events_delivered, 80u);
  EXPECT_EQ(result.faults_injected, crashes + byzantine);
  EXPECT_TRUE(result.recovery_unique);
  EXPECT_TRUE(result.recovered_correctly);
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(
    CrashOnly, ScenarioSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::Values(1u, 2u), ::testing::Values(0u),
                       ::testing::Values(1u, 2u, 3u)));

INSTANTIATE_TEST_SUITE_P(
    ByzantineOnly, ScenarioSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u), ::testing::Values(0u),
                       ::testing::Values(1u), ::testing::Values(1u, 2u, 3u)));

INSTANTIATE_TEST_SUITE_P(
    Mixed, ScenarioSweep,
    ::testing::Combine(::testing::Values(0u, 1u), ::testing::Values(1u),
                       ::testing::Values(1u), ::testing::Values(1u, 2u)));

class ColludingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColludingSweep, ColludingAdversaryWithinCapacity) {
  // The strongest adversary the simulator models, across seeds: one
  // colluding liar against an f=2 system.
  std::vector<Dfsm> machines = catalog_system(1);
  FusedSystemOptions options;
  options.f = 2;
  FusedSystem system(std::move(machines), options);

  std::vector<EventId> support(system.top().events().begin(),
                               system.top().events().end());
  RandomEventSource warmup(support, 60, GetParam());
  system.run(warmup);

  Xoshiro256 rng(GetParam() * 3 + 1);
  const std::size_t victim = rng.below(system.servers().size());
  system.corrupt(victim, ByzantineStrategy::kColluding, rng,
                 system.most_confusable_state());

  const RecoveryResult r = system.recover();
  ASSERT_TRUE(r.unique);
  EXPECT_EQ(r.top_state, system.ghost_top_state());
  EXPECT_TRUE(system.verify());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColludingSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(ScenarioEdge, FaultsBeyondCapacityAreDetectedNotSilent) {
  // Crash every server: recovery must flag non-uniqueness rather than
  // return a confident wrong answer.
  std::vector<Dfsm> machines = catalog_system(0);
  FusedSystemOptions options;
  options.f = 1;
  FusedSystem system(std::move(machines), options);
  for (std::size_t i = 0; i < system.servers().size(); ++i) system.crash(i);
  const RecoveryResult r = system.recover();
  EXPECT_FALSE(r.unique);
}

TEST(ScenarioEdge, RecoveryIsIdempotent) {
  std::vector<Dfsm> machines = catalog_system(1);
  FusedSystemOptions options;
  options.f = 1;
  FusedSystem system(std::move(machines), options);
  std::vector<EventId> support(system.top().events().begin(),
                               system.top().events().end());
  RandomEventSource events(support, 40, 3);
  system.run(events);
  system.crash(0);
  const RecoveryResult first = system.recover();
  const RecoveryResult second = system.recover();
  EXPECT_TRUE(first.unique);
  EXPECT_TRUE(second.unique);
  EXPECT_EQ(first.top_state, second.top_state);
  EXPECT_TRUE(system.verify());
}

TEST(ScenarioEdge, SystemKeepsRunningAfterRecovery) {
  std::vector<Dfsm> machines = catalog_system(2);
  FusedSystemOptions options;
  options.f = 1;
  FusedSystem system(std::move(machines), options);
  std::vector<EventId> support(system.top().events().begin(),
                               system.top().events().end());

  RandomEventSource phase1(support, 30, 5);
  system.run(phase1);
  system.crash(1);
  ASSERT_TRUE(system.recover().unique);

  RandomEventSource phase2(support, 30, 6);
  system.run(phase2);
  EXPECT_TRUE(system.verify());

  // A second, different fault in the same run.
  system.crash(0);
  ASSERT_TRUE(system.recover().unique);
  EXPECT_TRUE(system.verify());
}

}  // namespace
}  // namespace ffsm
