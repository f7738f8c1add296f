// The parallel incremental fusion engine: agreement with the test-side
// oracle across thread counts and policies, incremental-vs-rebuild
// equivalence, closure-cache correctness, and the batched entry point.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "oracle.hpp"
#include "partition/lower_cover.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace ffsm {
namespace {

using ffsm::testing::CanonicalExample;
using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using ffsm::testing::oracle_generate_fusion;

TEST(FusionEngine, ParallelSerialEquivalenceAcrossThreadsAndPolicies) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  for (const DescentPolicy policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks}) {
    GenerateOptions serial;
    serial.f = 2;
    serial.policy = policy;
    serial.parallel = false;
    const FusionResult baseline =
        oracle_generate_fusion(cp.top, originals, serial);
    ASSERT_FALSE(baseline.partitions.empty());
    EXPECT_EQ(generate_fusion(cp.top, originals, serial).partitions,
              baseline.partitions);

    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      GenerateOptions parallel = serial;
      parallel.parallel = true;
      parallel.pool = &pool;
      const FusionResult result =
          generate_fusion(cp.top, originals, parallel);
      // Bit-identical partitions, not just equivalent ones.
      ASSERT_EQ(result.partitions.size(), baseline.partitions.size())
          << "threads=" << threads;
      for (std::size_t i = 0; i < result.partitions.size(); ++i)
        EXPECT_EQ(result.partitions[i].assignment().size(),
                  baseline.partitions[i].assignment().size());
      EXPECT_EQ(result.partitions, baseline.partitions)
          << "threads=" << threads;
      EXPECT_EQ(result.stats.machines_added, baseline.stats.machines_added);
      EXPECT_EQ(result.stats.dmin_after, baseline.stats.dmin_after);
    }
  }
}

TEST(FusionEngine, IncrementalMatchesFullRecomputation) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  for (const DescentPolicy policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks}) {
    GenerateOptions options;
    options.f = 2;
    options.policy = policy;

    const FusionResult a = generate_fusion(cp.top, originals, options);
    const FusionResult b = oracle_generate_fusion(cp.top, originals, options);
    EXPECT_EQ(a.partitions, b.partitions);
    EXPECT_EQ(a.stats.machines_added, b.stats.machines_added);
    EXPECT_EQ(a.stats.descent_steps, b.stats.descent_steps);
    EXPECT_EQ(a.stats.dmin_before, b.stats.dmin_before);
    EXPECT_EQ(a.stats.dmin_after, b.stats.dmin_after);
    // The whole point of the incremental engine: strictly fewer closures
    // actually evaluated.
    EXPECT_LT(a.stats.closures_evaluated, b.stats.closures_evaluated);
    EXPECT_GT(a.stats.cover_cache_hits, 0u);
  }
}

TEST(FusionEngine, IncrementalFaultGraphMatchesRebuildOnCatalogMachines) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);
  const std::uint32_t n = cp.top.size();

  // Generate some fusion machines to replay as deltas.
  GenerateOptions options;
  options.f = 2;
  const FusionResult fusion = generate_fusion(cp.top, originals, options);
  ASSERT_FALSE(fusion.partitions.empty());

  FaultGraph delta = FaultGraph::build(n, originals);
  std::vector<Partition> all = originals;
  for (const Partition& p : fusion.partitions) {
    delta.add_machine(p);
    all.push_back(p);
    const FaultGraph fresh = FaultGraph::build(n, all);
    ASSERT_EQ(delta.dmin(), fresh.dmin());
    ASSERT_EQ(delta.machine_count(), fresh.machine_count());
    ASSERT_EQ(delta.weakest_edges(), fresh.weakest_edges());
    for (std::uint32_t i = 0; i < n; i += 7)
      for (std::uint32_t j = i + 1; j < n; j += 5)
        ASSERT_EQ(delta.weight(i, j), fresh.weight(i, j));
  }

  // remove_machine is the exact inverse, including the maintained dmin /
  // weakest-edge set.
  const FaultGraph base = FaultGraph::build(n, originals);
  for (auto it = fusion.partitions.rbegin(); it != fusion.partitions.rend();
       ++it)
    delta.remove_machine(*it);
  EXPECT_EQ(delta.dmin(), base.dmin());
  EXPECT_EQ(delta.weakest_edges(), base.weakest_edges());
  EXPECT_EQ(delta.machine_count(), base.machine_count());
}

TEST(FusionEngine, LowerCoverCacheReturnsIdenticalCovers) {
  const CrossProduct cp = counter_pair_product(4);
  const Partition identity = Partition::identity(cp.top.size());

  LowerCoverCache cache;
  LowerCoverOptions with_cache;
  with_cache.cache = &cache;
  const auto first = lower_cover_cached(cp.top, identity, with_cache);
  const auto second = lower_cover_cached(cp.top, identity, with_cache);
  EXPECT_EQ(first.get(), second.get());  // shared, not recomputed
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  const auto uncached = lower_cover(cp.top, identity);
  EXPECT_EQ(*first, uncached);
}

TEST(FusionEngine, SharedCacheDoesNotChangeResults) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  GenerateOptions plain;
  plain.f = 2;
  plain.cache = nullptr;
  const FusionResult baseline = generate_fusion(cp.top, originals, plain);

  LowerCoverCache shared;
  GenerateOptions cached = plain;
  cached.cache = &shared;
  const FusionResult first = generate_fusion(cp.top, originals, cached);
  const FusionResult second = generate_fusion(cp.top, originals, cached);
  EXPECT_EQ(first.partitions, baseline.partitions);
  EXPECT_EQ(second.partitions, baseline.partitions);
  // Second run over a warm cache evaluates nothing new.
  EXPECT_EQ(second.stats.closures_evaluated, 0u);
  EXPECT_GT(second.stats.cover_cache_hits, 0u);
}

TEST(FusionEngine, BoundedCacheBitIdenticalAcrossCapacitiesAndThreads) {
  // A tiny bounded cache (1-4 entries) forces heavy eviction during the
  // descents; outputs must stay bit-identical to the memo-free oracle at
  // any capacity and thread count and under every descent policy —
  // eviction only ever costs recomputation.
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  for (const DescentPolicy policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks}) {
    GenerateOptions options;
    options.f = 2;
    options.policy = policy;
    const FusionResult baseline =
        oracle_generate_fusion(cp.top, originals, options);
    ASSERT_FALSE(baseline.partitions.empty());

    for (const std::size_t capacity :
         {std::size_t{1}, std::size_t{2}, std::size_t{4},
          LowerCoverCache::kDefaultCapacity}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        LowerCoverCache cache(capacity);
        GenerateOptions bounded = options;
        bounded.pool = &pool;
        bounded.cache = &cache;
        const FusionResult result = generate_fusion(cp.top, originals, bounded);
        EXPECT_EQ(result.partitions, baseline.partitions)
            << "capacity=" << capacity << " threads=" << threads;
        EXPECT_EQ(result.stats.machines_added, baseline.stats.machines_added);
        EXPECT_EQ(result.stats.dmin_after, baseline.stats.dmin_after);
        EXPECT_LE(cache.size(), capacity);
      }
    }
  }
}

TEST(FusionEngine, BoundedCacheBatchMatchesOracle) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  std::vector<FusionRequest> requests;
  for (const std::uint32_t f : {1u, 2u, 3u}) {
    FusionRequest r;
    r.originals = originals;
    r.f = f;
    requests.push_back(std::move(r));
  }

  std::vector<FusionResult> baseline;
  for (const FusionRequest& r : requests) {
    GenerateOptions single;
    single.f = r.f;
    single.policy = r.policy;
    baseline.push_back(oracle_generate_fusion(cp.top, r.originals, single));
  }

  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{2}, std::size_t{4},
        LowerCoverCache::kDefaultCapacity}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      LowerCoverCache cache(capacity);
      BatchOptions bounded;
      bounded.pool = &pool;
      bounded.cache = &cache;
      const auto results = generate_fusion_batch(cp.top, requests, bounded);
      ASSERT_EQ(results.size(), baseline.size());
      for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].partitions, baseline[i].partitions)
            << "request " << i << " capacity " << capacity << " threads "
            << threads;
    }
  }
}

TEST(FusionEngine, BatchMatchesIndividualRequests) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  std::vector<FusionRequest> requests;
  for (const std::uint32_t f : {1u, 2u, 3u}) {
    FusionRequest r;
    r.originals = originals;
    r.f = f;
    r.policy = DescentPolicy::kFewestBlocks;
    requests.push_back(std::move(r));
  }
  {
    FusionRequest r;
    r.originals = originals;
    r.f = 2;
    r.policy = DescentPolicy::kMostBlocks;
    requests.push_back(std::move(r));
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    BatchOptions options;
    options.pool = &pool;
    const auto results = generate_fusion_batch(cp.top, requests, options);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      GenerateOptions single;
      single.f = requests[i].f;
      single.policy = requests[i].policy;
      const FusionResult expected =
          oracle_generate_fusion(cp.top, requests[i].originals, single);
      EXPECT_EQ(results[i].partitions, expected.partitions)
          << "request " << i << " threads " << threads;
      EXPECT_EQ(results[i].stats.dmin_after, expected.stats.dmin_after);
    }
  }
}

TEST(FusionEngine, BatchOnCanonicalExample) {
  const CanonicalExample ex;
  std::vector<FusionRequest> requests(3);
  for (auto& r : requests) {
    r.originals = ex.originals();
    r.f = 1;
  }
  const auto results = generate_fusion_batch(ex.top, requests);
  ASSERT_EQ(results.size(), 3u);
  for (const FusionResult& r : results) {
    EXPECT_EQ(r.partitions.size(), 1u);
    EXPECT_GT(r.stats.dmin_after, 1u);
  }
}

TEST(FusionEngine, EmptyBatchIsANoop) {
  const CanonicalExample ex;
  EXPECT_TRUE(generate_fusion_batch(ex.top, {}).empty());
}

TEST(FusionEngine, BatchPropagatesRequestErrorsFromWorkers) {
  const CanonicalExample ex;
  std::vector<FusionRequest> requests(2);
  requests[0].originals = ex.originals();
  requests[1].originals = {Partition::identity(3)};  // top has 4 states
  ThreadPool pool(4);
  BatchOptions options;
  options.pool = &pool;
  // The bad request throws on a pool worker; the batch must surface it as a
  // catchable exception on the caller, exactly like a serial run — not
  // std::terminate.
  EXPECT_THROW((void)generate_fusion_batch(ex.top, requests, options),
               ContractViolation);
  BatchOptions serial;
  serial.parallel = false;
  EXPECT_THROW((void)generate_fusion_batch(ex.top, requests, serial),
               ContractViolation);
}

// Pool re-entrancy and concurrent-submitter protocol tests live in
// tests/util_parallel_test.cpp with the rest of the ThreadPool suite.

}  // namespace
}  // namespace ffsm
