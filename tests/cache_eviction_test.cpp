// Bounded LowerCoverCache mechanics: LRU eviction, the strict capacity
// invariant, eviction-vs-cold miss classification, byte accounting, the
// export/import warm handoff, and the end-to-end guarantee that eviction
// only ever costs a recompute — never a wrong cover.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "partition/lower_cover.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

using ffsm::testing::CanonicalExample;

std::shared_ptr<const LowerCoverCache::Cover> dummy_cover(
    const Partition& element) {
  return std::make_shared<const LowerCoverCache::Cover>(
      LowerCoverCache::Cover{element});
}

TEST(CacheEviction, DefaultCapacityIsBounded) {
  const LowerCoverCache cache;
  EXPECT_EQ(cache.capacity(), LowerCoverCache::kDefaultCapacity);
}

TEST(CacheEviction, CapacityMustBePositive) {
  EXPECT_THROW(LowerCoverCache(0), ContractViolation);
  const LowerCoverCache smallest(1);
  EXPECT_EQ(smallest.capacity(), 1u);
}

TEST(CacheEviction, LruEvictsLeastRecentlyUsed) {
  const CanonicalExample ex;
  LowerCoverCache cache(2);

  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));
  EXPECT_EQ(cache.size(), 2u);

  // Touch A so B becomes the LRU victim.
  EXPECT_NE(cache.find(ex.p_a), nullptr);
  (void)cache.insert(ex.p_m1, dummy_cover(ex.p_m1));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(ex.p_a), nullptr);   // survived
  EXPECT_NE(cache.find(ex.p_m1), nullptr);  // fresh
  EXPECT_EQ(cache.find(ex.p_b), nullptr);   // evicted
  EXPECT_EQ(cache.eviction_misses(), 1u);
}

TEST(CacheEviction, CapacityIsAHardBoundUnderChurn) {
  const CanonicalExample ex;
  const std::vector<Partition> keys = {ex.p_top, ex.p_a,  ex.p_b,
                                       ex.p_m1,  ex.p_m2, ex.p_m3,
                                       ex.p_m4,  ex.p_m5, ex.p_m6};
  for (const std::size_t capacity : {1u, 2u, 3u, 4u}) {
    LowerCoverCache cache(capacity);
    for (int round = 0; round < 3; ++round)
      for (const Partition& p : keys) {
        if (cache.find(p) == nullptr) (void)cache.insert(p, dummy_cover(p));
        ASSERT_LE(cache.size(), capacity);
      }
  }
}

TEST(CacheEviction, ReMissAfterEvictionIsNotAColdMiss) {
  const CanonicalExample ex;
  LowerCoverCache cache(1);

  EXPECT_EQ(cache.find(ex.p_a), nullptr);  // never seen: cold
  EXPECT_EQ(cache.cold_misses(), 1u);
  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));  // evicts A

  EXPECT_EQ(cache.find(ex.p_a), nullptr);  // seen before: eviction miss
  EXPECT_EQ(cache.cold_misses(), 1u);
  EXPECT_EQ(cache.eviction_misses(), 1u);
  EXPECT_EQ(cache.misses(), 2u);  // total stays hits-complement compatible
}

TEST(CacheEviction, TracksApproximateBytes) {
  const CanonicalExample ex;
  LowerCoverCache cache(2);
  EXPECT_EQ(cache.approx_bytes(), 0u);

  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  const std::size_t one = cache.approx_bytes();
  EXPECT_GT(one, 0u);

  // Every key and cover partition here has the same state count, so
  // entries with one-partition covers all weigh the same.
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));
  EXPECT_EQ(cache.approx_bytes(), 2 * one);

  (void)cache.insert(ex.p_m1, dummy_cover(ex.p_m1));  // evicts A
  EXPECT_EQ(cache.approx_bytes(), 2 * one);

  // A heavier entry evicts B, then leaves again itself: its bytes go in
  // and out exactly.
  const auto heavy = std::make_shared<const LowerCoverCache::Cover>(
      LowerCoverCache::Cover{ex.p_m2, ex.p_m2, ex.p_m2});
  (void)cache.insert(ex.p_m2, heavy);
  const std::size_t with_heavy = cache.approx_bytes();
  EXPECT_GT(with_heavy, 2 * one);
  (void)cache.insert(ex.p_m3, dummy_cover(ex.p_m3));  // evicts M1
  EXPECT_EQ(cache.approx_bytes(), with_heavy);
  (void)cache.insert(ex.p_m4, dummy_cover(ex.p_m4));  // evicts M2
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(cache.approx_bytes(), 2 * one);
}

TEST(CacheEviction, InsertOfResidentKeyKeepsFirstValueAndEvictsNothing) {
  const CanonicalExample ex;
  LowerCoverCache cache(1);
  const auto first = cache.insert(ex.p_a, dummy_cover(ex.p_a));
  const auto second = cache.insert(ex.p_a, dummy_cover(ex.p_b));
  EXPECT_EQ(first.get(), second.get());  // first writer wins
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheEviction, EvictedCoverStaysAliveForHolders) {
  const CanonicalExample ex;
  LowerCoverCache cache(1);
  const auto held = cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));  // evicts A's entry
  ASSERT_EQ(cache.evictions(), 1u);
  // The shared_ptr we kept is still valid and unchanged.
  ASSERT_EQ(held->size(), 1u);
  EXPECT_EQ((*held)[0], ex.p_a);
}

TEST(CacheEviction, CapacityOneRecomputesCorrectCovers) {
  // End-to-end: a 1-entry cache thrashes on alternating keys, yet every
  // lookup returns exactly the uncached cover.
  const CanonicalExample ex;
  LowerCoverCache cache(1);
  LowerCoverOptions options;
  options.cache = &cache;

  for (int round = 0; round < 3; ++round)
    for (const Partition& p : {ex.p_top, ex.p_a, ex.p_m1}) {
      const auto cover = lower_cover_cached(ex.top, p, options);
      EXPECT_EQ(*cover, lower_cover(ex.top, p)) << p.to_string();
      EXPECT_LE(cache.size(), 1u);
    }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.eviction_misses(), 0u);
}

TEST(CacheEviction, ExportHotReturnsMostRecentlyUsedFirst) {
  const CanonicalExample ex;
  LowerCoverCache cache(8);
  for (const Partition& p : {ex.p_a, ex.p_b, ex.p_m1})
    (void)cache.insert(p, dummy_cover(p));
  EXPECT_NE(cache.find(ex.p_a), nullptr);  // hottest now

  const auto top2 = cache.export_hot(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].key, ex.p_a);
  EXPECT_EQ(top2[1].key, ex.p_m1);
  ASSERT_EQ(top2[0].cover.size(), 1u);
  EXPECT_EQ(top2[0].cover[0], ex.p_a);
  // Asking for more than resident returns everything, once.
  EXPECT_EQ(cache.export_hot(100).size(), 3u);
  EXPECT_TRUE(cache.export_hot(0).empty());
}

TEST(CacheEviction, ImportKeepsHottestWhenOverCapacity) {
  const CanonicalExample ex;
  LowerCoverCache source(8);
  (void)source.insert(ex.p_a, dummy_cover(ex.p_a));   // coldest
  (void)source.insert(ex.p_b, dummy_cover(ex.p_b));
  (void)source.insert(ex.p_m1, dummy_cover(ex.p_m1));  // hottest

  LowerCoverCache target(2);
  target.import(source.export_hot(8));
  EXPECT_EQ(target.size(), 2u);  // capacity still binds on import
  EXPECT_NE(target.find(ex.p_m1), nullptr);
  EXPECT_NE(target.find(ex.p_b), nullptr);
  EXPECT_EQ(target.find(ex.p_a), nullptr);  // coldest snapshot entry dropped
}

TEST(CacheEviction, ImportSkipsResidentKeys) {
  const CanonicalExample ex;
  LowerCoverCache source(8);
  (void)source.insert(ex.p_a, dummy_cover(ex.p_a));

  LowerCoverCache target(8);
  const auto original = target.insert(ex.p_a, dummy_cover(ex.p_b));
  target.import(source.export_hot(8));
  // First writer wins, exactly like a racing insert of a resident key.
  EXPECT_EQ(target.find(ex.p_a).get(), original.get());
  EXPECT_EQ(target.size(), 1u);
}

TEST(CacheEviction, CapacitiesServeBitIdenticalCoversUnderThreads) {
  // The end-to-end guarantee the warm handoff leans on: whatever the
  // capacity or concurrency, a cached lookup returns exactly the uncached
  // cover — a miss (eviction, race) only ever costs a recompute.
  const CanonicalExample ex;
  const std::vector<Partition> keys = {ex.p_top, ex.p_a,  ex.p_b,
                                       ex.p_m1,  ex.p_m2, ex.p_m3,
                                       ex.p_m4,  ex.p_m5, ex.p_m6};
  std::vector<LowerCoverCache::Cover> oracle;
  oracle.reserve(keys.size());
  for (const Partition& p : keys) oracle.push_back(lower_cover(ex.top, p));

  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{16},
        LowerCoverCache::kDefaultCapacity}) {
    for (const unsigned thread_count : {1u, 8u}) {
      LowerCoverCache cache(capacity);
      LowerCoverOptions options;
      options.cache = &cache;
      std::atomic<bool> identical{true};
      std::vector<std::thread> workers;
      workers.reserve(thread_count);
      for (unsigned t = 0; t < thread_count; ++t)
        workers.emplace_back([&] {
          for (int round = 0; round < 3; ++round)
            for (std::size_t i = 0; i < keys.size(); ++i) {
              const auto cover = lower_cover_cached(ex.top, keys[i], options);
              if (*cover != oracle[i])
                identical.store(false, std::memory_order_relaxed);
            }
        });
      for (std::thread& worker : workers) worker.join();
      EXPECT_TRUE(identical.load())
          << "capacity=" << capacity << " threads=" << thread_count;
      EXPECT_LE(cache.size(), capacity);
    }
  }
}

}  // namespace
}  // namespace ffsm
