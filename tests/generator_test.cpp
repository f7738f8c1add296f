#include "fusion/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fusion/fusion.hpp"
#include "fusion/minimality.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::oracle_generate_fusion;
using testing::oracle_lower_cover;

TEST(Generator, PaperWalkthroughFEquals1YieldsM6) {
  // Section 5.1: descending TOP -> M1 -> M6; "M6 is added to the fusion
  // set". All descent policies agree here because the viable candidate is
  // unique at every step.
  const CanonicalExample ex;
  for (const auto policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks}) {
    GenerateOptions options;
    options.f = 1;
    options.policy = policy;
    const FusionResult result =
        generate_fusion(ex.top, ex.originals(), options);
    ASSERT_EQ(result.partitions.size(), 1u);
    EXPECT_EQ(result.partitions[0], ex.p_m6);
  }
}

TEST(Generator, PaperWalkthroughFEquals2YieldsM6ThenTop) {
  // Second iteration: weakest edges of G({A,B,M6}) are all weight-2 edges;
  // no basis machine covers them all, so the descent stops at TOP itself —
  // exactly why Fig. 4(v) shows G({A,B,M6,TOP}).
  const CanonicalExample ex;
  GenerateOptions options;
  options.f = 2;
  const FusionResult result = generate_fusion(ex.top, ex.originals(), options);
  ASSERT_EQ(result.partitions.size(), 2u);
  EXPECT_EQ(result.partitions[0], ex.p_m6);
  EXPECT_EQ(result.partitions[1], ex.p_top);
}

TEST(Generator, OutputIsAFusion) {
  const CanonicalExample ex;
  for (std::uint32_t f = 1; f <= 4; ++f) {
    GenerateOptions options;
    options.f = f;
    const FusionResult result =
        generate_fusion(ex.top, ex.originals(), options);
    EXPECT_TRUE(is_fusion(4, ex.originals(), result.partitions, f))
        << "f = " << f;
  }
}

TEST(Generator, ProducesExactlyMinimumCount) {
  // dmin({A,B}) = 1 -> f+1-1 = f machines.
  const CanonicalExample ex;
  for (std::uint32_t f = 1; f <= 5; ++f) {
    GenerateOptions options;
    options.f = f;
    const FusionResult result =
        generate_fusion(ex.top, ex.originals(), options);
    EXPECT_EQ(result.partitions.size(), minimum_fusion_size(f, 1))
        << "f = " << f;
    EXPECT_EQ(result.stats.machines_added, result.partitions.size());
  }
}

TEST(Generator, NoMachinesWhenAlreadyTolerant) {
  // {A, B, M1} already tolerates one fault.
  const CanonicalExample ex;
  const std::vector<Partition> originals{ex.p_a, ex.p_b, ex.p_m1};
  GenerateOptions options;
  options.f = 1;
  const FusionResult result = generate_fusion(ex.top, originals, options);
  EXPECT_TRUE(result.partitions.empty());
  EXPECT_EQ(result.stats.dmin_before, 2u);
  EXPECT_EQ(result.stats.dmin_after, 2u);
}

TEST(Generator, EachAddedMachineRaisesDminByOne) {
  const CanonicalExample ex;
  GenerateOptions options;
  options.f = 3;
  const FusionResult result = generate_fusion(ex.top, ex.originals(), options);
  EXPECT_EQ(result.stats.dmin_before, 1u);
  EXPECT_EQ(result.stats.dmin_after, 4u);
  EXPECT_EQ(result.partitions.size(), 3u);
}

TEST(Generator, StatsCountDescentWork) {
  const CanonicalExample ex;
  GenerateOptions options;
  options.f = 1;
  const FusionResult result = generate_fusion(ex.top, ex.originals(), options);
  // TOP -> M1 -> M6 is two descent steps, and at least the two lower covers
  // were examined.
  EXPECT_EQ(result.stats.descent_steps, 2u);
  EXPECT_GE(result.stats.candidates_examined, 4u);
}

TEST(Generator, SinkComponentsAreCountedOnlyWhenCoversAreComputed) {
  // gen.sink_components counts the sink components the lower covers found:
  // the cold run computes every cover and the warm rerun none.
  const CrossProduct cp = testing::counter_pair_product();
  const std::vector<Partition> originals = testing::component_partitions(cp);
  ThreadPool pool(2);
  LowerCoverCache cache;
  GenerateOptions options;
  options.f = 2;
  options.pool = &pool;
  options.cache = &cache;

  obs::Obs cold_obs;
  options.obs = &cold_obs;
  const FusionResult cold = generate_fusion(cp.top, originals, options);
  const std::uint64_t cold_sinks =
      cold_obs.snapshot().counters["gen.sink_components"];
  EXPECT_GT(cold_sinks, 0u);
  // closures_evaluated counts every pair classified; one per sink is
  // closed.
  EXPECT_GT(cold.stats.closures_evaluated, cold_sinks);

  obs::Obs warm_obs;
  options.obs = &warm_obs;
  const FusionResult warm = generate_fusion(cp.top, originals, options);
  EXPECT_EQ(warm.partitions, cold.partitions);
  EXPECT_EQ(warm.stats.closures_evaluated, 0u);
  EXPECT_EQ(warm_obs.snapshot().counters["gen.sink_components"], 0u);
}

TEST(Generator, SingleStateTopNeedsNothing) {
  auto al = Alphabet::create();
  const Dfsm trivial = make_mod_counter(al, "t", 1, "e");
  const std::vector<Partition> originals{Partition::single_block(1)};
  GenerateOptions options;
  options.f = 7;
  const FusionResult result = generate_fusion(trivial, originals, options);
  EXPECT_TRUE(result.partitions.empty());
}

TEST(Generator, SerialAndParallelProduceIdenticalFusions) {
  const CanonicalExample ex;
  GenerateOptions serial;
  serial.f = 2;
  serial.parallel = false;
  GenerateOptions parallel;
  parallel.f = 2;
  parallel.parallel = true;
  const FusionResult a = generate_fusion(ex.top, ex.originals(), serial);
  const FusionResult b = generate_fusion(ex.top, ex.originals(), parallel);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.partitions,
            oracle_generate_fusion(ex.top, ex.originals(), serial).partitions);
}

/// The recover benchmark's top: MESI, TCP and the paper's machines A and B
/// (176 states, 16 events).
CrossProduct recover_top() {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mesi(alphabet));
  machines.push_back(make_tcp(alphabet));
  machines.push_back(make_paper_machine_a(alphabet));
  machines.push_back(make_paper_machine_b(alphabet));
  return reachable_cross_product(machines);
}

/// generate_fusion on `cp` against the oracle: once on the calling thread,
/// then on a pool of each size in `threads` with an LRU cache of each
/// capacity in `capacities`.
void expect_engine_matches_oracle(
    const CrossProduct& cp, std::uint32_t f, DescentPolicy policy,
    std::initializer_list<std::size_t> threads,
    std::initializer_list<std::size_t> capacities) {
  SCOPED_TRACE(::testing::Message() << "top " << cp.top.size() << ", f " << f);
  SCOPED_TRACE(::testing::Message() << "policy " << static_cast<int>(policy));
  const std::vector<Partition> originals = testing::component_partitions(cp);
  GenerateOptions serial;
  serial.f = f;
  serial.policy = policy;
  serial.parallel = false;
  const FusionResult baseline =
      oracle_generate_fusion(cp.top, originals, serial);
  ASSERT_FALSE(baseline.partitions.empty());
  const auto expect_same = [&](const FusionResult& result) {
    EXPECT_EQ(result.partitions, baseline.partitions);
    EXPECT_EQ(result.stats.machines_added, baseline.stats.machines_added);
    EXPECT_EQ(result.stats.descent_steps, baseline.stats.descent_steps);
    EXPECT_EQ(result.stats.dmin_after, baseline.stats.dmin_after);
  };

  {
    SCOPED_TRACE("serial");
    expect_same(generate_fusion(cp.top, originals, serial));
  }
  for (const std::size_t thread_count : threads) {
    for (const std::size_t capacity : capacities) {
      SCOPED_TRACE(::testing::Message() << "threads " << thread_count);
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
      ThreadPool pool(thread_count);
      LowerCoverCache cache(capacity);
      GenerateOptions parallel = serial;
      parallel.parallel = true;
      parallel.pool = &pool;
      parallel.cache = &cache;
      expect_same(generate_fusion(cp.top, originals, parallel));
    }
  }
}

/// The steps of the first descent `policy` takes on `cp` at which two or
/// more viable lower-cover candidates share the block count the policy
/// picks by, walked from the definitions as the oracle walks them.
std::uint32_t tied_steps(const CrossProduct& cp, DescentPolicy policy) {
  const std::vector<Partition> originals = testing::component_partitions(cp);
  const FaultGraph graph = FaultGraph::build(cp.top.size(), originals);
  const auto& weakest = graph.weakest_edges();
  const auto separates_all = [&](const Partition& c) {
    for (const auto& [i, j] : weakest)
      if (!c.separates(i, j)) return false;
    return true;
  };
  const auto by_blocks = [](const Partition& a, const Partition& b) {
    return a.block_count() < b.block_count();
  };
  std::uint32_t ties = 0;
  Partition current = Partition::identity(cp.top.size());
  while (true) {
    std::vector<Partition> viable;
    for (Partition& c : oracle_lower_cover(cp.top, current))
      if (separates_all(c)) viable.push_back(std::move(c));
    if (viable.empty()) return ties;
    auto pick = std::min_element(viable.begin(), viable.end(), by_blocks);
    if (policy == DescentPolicy::kMostBlocks)
      pick = std::max_element(viable.begin(), viable.end(), by_blocks);
    std::size_t sharing = 0;
    for (const Partition& c : viable)
      if (c.block_count() == pick->block_count()) ++sharing;
    if (sharing > 1) ++ties;
    current = *pick;
  }
}

TEST(Generator, ParallelMatchesSerialAcrossPoliciesFaultsThreadsAndCaches) {
  // The engine on one thread and on pools, with LRU caches small enough to
  // evict mid-descent, against the oracle: Algorithm 2 rebuilt from the
  // definitions, memoizing nothing.
  const CrossProduct cp = testing::counter_pair_product();
  for (const DescentPolicy policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks})
    for (const std::uint32_t f : {1u, 2u, 3u})
      expect_engine_matches_oracle(cp, f, policy, {1u, 2u, 8u}, {2u, 1024u});

  // The repository benchmark's own tops. serve-warm asks about four
  // counter pairs at f = 1..3 under both block-count policies; f = 3
  // covers the smaller f, whose machines are its first ones (an outer
  // iteration never reads f).
  for (const std::uint32_t k : {8u, 9u, 10u, 12u}) {
    const CrossProduct counters = testing::counter_pair_product(k);
    for (const DescentPolicy policy :
         {DescentPolicy::kFewestBlocks, DescentPolicy::kMostBlocks})
      expect_engine_matches_oracle(counters, 3, policy, {4u}, {1024u});
  }
  // recover fuses MESI, TCP and the paper's machines A and B at f = 2.
  const CrossProduct fused = recover_top();
  ASSERT_EQ(fused.top.size(), 176u);
  expect_engine_matches_oracle(fused, 2, DescentPolicy::kFewestBlocks, {4u},
                               {1024u});

  // Two mod-4 counters at f = 1: below the partition that joins x with
  // x + (2, 2), the partitions by n0 + n1 and by n0 - n1 (mod 4) are both
  // viable, with 4 blocks each. The engine must break such ties as the
  // oracle does, for the earlier candidate.
  const CrossProduct tied = testing::counter_pair_product(4);
  EXPECT_GT(tied_steps(tied, DescentPolicy::kFewestBlocks), 0u);
  EXPECT_GT(tied_steps(tied, DescentPolicy::kMostBlocks), 0u);
  for (const DescentPolicy policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks})
    for (const std::uint32_t f : {1u, 2u, 3u})
      expect_engine_matches_oracle(tied, f, policy, {1u, 4u}, {2u, 1024u});
}

TEST(Generator, WorkCountsOnTheRecoverTop) {
  // The work Algorithm 2 does on the recover benchmark's top, serially and
  // on a pool. The sink components are a property of each cover's
  // block-pair graph, so their count moves only if the search misses a
  // sink or reports a component that is not one.
  const CrossProduct cp = recover_top();
  ASSERT_EQ(cp.top.size(), 176u);
  ASSERT_EQ(cp.top.events().size(), 16u);
  const std::vector<Partition> originals = testing::component_partitions(cp);
  const Partition identity = Partition::identity(cp.top.size());
  ThreadPool pool(4);
  for (ThreadPool* on : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(on != nullptr ? "on a 4-thread pool" : "serially");
    obs::Obs cover_obs;
    LowerCoverOptions cover_options;
    cover_options.parallel = on != nullptr;
    cover_options.pool = on;
    cover_options.obs = &cover_obs;
    EXPECT_EQ(lower_cover(cp.top, identity, cover_options).size(), 8u);
    // The identity's 15,400 pairs hold 8 sink components.
    EXPECT_EQ(cover_obs.snapshot().counters["gen.sink_components"], 8u);

    obs::Obs generate_obs;
    GenerateOptions options;
    options.f = 2;
    options.parallel = on != nullptr;
    options.pool = on;
    options.obs = &generate_obs;
    const FusionResult result = generate_fusion(cp.top, originals, options);
    // Covers of 15,400, 8,646 and 3,828 pairs, with 19 sinks among them.
    EXPECT_EQ(result.stats.closures_evaluated, 27'874u);
    EXPECT_EQ(result.stats.descent_steps, 2u);
    EXPECT_EQ(generate_obs.snapshot().counters["gen.sink_components"], 19u);
  }
}

TEST(Generator, WarmRerunOnASharedCacheEvaluatesNoClosures) {
  const CrossProduct cp = testing::counter_pair_product();
  const std::vector<Partition> originals = testing::component_partitions(cp);
  LowerCoverCache cache;
  ThreadPool pool(8);
  GenerateOptions options;
  options.f = 2;
  options.parallel = true;
  options.pool = &pool;
  options.cache = &cache;
  const FusionResult cold = generate_fusion(cp.top, originals, options);
  const FusionResult warm = generate_fusion(cp.top, originals, options);
  EXPECT_EQ(cold.partitions, warm.partitions);
  EXPECT_GT(cold.stats.closures_evaluated, 0u);
  EXPECT_EQ(warm.stats.closures_evaluated, 0u);
  EXPECT_EQ(warm.stats.cover_cache_hits,
            static_cast<std::uint64_t>(warm.stats.descent_steps) +
                warm.stats.machines_added);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(Generator, ParallelBatchMatchesPerRequestSerialGeneration) {
  const CrossProduct cp = testing::counter_pair_product();
  const std::vector<Partition> originals = testing::component_partitions(cp);
  std::vector<FusionRequest> requests;
  for (const DescentPolicy policy :
       {DescentPolicy::kFewestBlocks, DescentPolicy::kFirstFound}) {
    FusionRequest r;
    r.originals = originals;
    r.f = 2;
    r.policy = policy;
    requests.push_back(std::move(r));
  }

  ThreadPool pool(4);
  BatchOptions batch;
  batch.parallel = true;
  batch.pool = &pool;
  const std::vector<FusionResult> results =
      generate_fusion_batch(cp.top, requests, batch);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    GenerateOptions single;
    single.f = requests[i].f;
    single.policy = requests[i].policy;
    const FusionResult expect =
        oracle_generate_fusion(cp.top, originals, single);
    EXPECT_EQ(results[i].partitions, expect.partitions) << "request " << i;
    EXPECT_EQ(results[i].stats.dmin_after, expect.stats.dmin_after);
  }
}

TEST(Generator, BackupMachinesAreQuotients) {
  // generate_backup_machines wires cross product -> Algorithm 2 -> quotient.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  const CrossProduct cp = reachable_cross_product(machines);
  GenerateOptions options;
  options.f = 1;
  const GeneratedBackups backups = generate_backup_machines(cp, options);
  ASSERT_EQ(backups.machines.size(), 1u);
  EXPECT_EQ(backups.machines[0].name(), "F1");
  // The (1,1)-fusion of {A,B} is the 2-state machine (M6 in the paper's
  // numbering; same block structure under the BFS numbering).
  EXPECT_EQ(backups.machines[0].size(), 2u);
  EXPECT_EQ(backups.partitions[0].block_count(), 2u);
}

TEST(Generator, Fig1CountersFindThreeStateFusion) {
  // Fig. 1: two mod-3 counters; a single 3-state machine (e.g. (n0+n1) mod
  // 3) tolerates one crash fault, much smaller than the 9-state cross
  // product.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "A", 3, "0"));
  machines.push_back(make_mod_counter(al, "B", 3, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  EXPECT_EQ(cp.top.size(), 9u);
  GenerateOptions options;
  options.f = 1;
  const GeneratedBackups backups = generate_backup_machines(cp, options);
  ASSERT_EQ(backups.machines.size(), 1u);
  EXPECT_EQ(backups.machines[0].size(), 3u);  // beats the 9-state top
}

TEST(Generator, PostconditionHoldsOnCatalogRows) {
  for (const auto& row : make_results_table_rows()) {
    const CrossProduct cp = reachable_cross_product(row.machines);
    GenerateOptions options;
    options.f = row.faults;
    const GeneratedBackups backups = generate_backup_machines(cp, options);
    std::vector<Partition> originals;
    for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
      originals.emplace_back(cp.component_assignment(i));
    EXPECT_TRUE(
        is_fusion(cp.top.size(), originals, backups.partitions, row.faults))
        << row.label;
    // Never more machines than replication's n*f.
    EXPECT_LE(backups.machines.size(),
              row.machines.size() * row.faults)
        << row.label;
  }
}

}  // namespace
}  // namespace ffsm
