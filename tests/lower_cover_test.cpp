#include "partition/lower_cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "fsm/random_dfsm.hpp"
#include "obs/obs.hpp"
#include "partition/closure.hpp"
#include "partition/lattice.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::pt;

bool contains(const std::vector<Partition>& v, const Partition& p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

/// The fused evaluator (pruned pair closures, inline dedup), serial or on
/// `pool`.
LowerCoverOptions fused_options(ThreadPool* pool) {
  LowerCoverOptions options;
  options.fused = true;
  options.parallel = pool != nullptr;
  options.pool = pool;
  return options;
}

TEST(LowerCover, OfTopIsTheBasis) {
  // Fig. 3: "the machines A, B, M1 and M2 constitute the basis".
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_top);
  EXPECT_EQ(cover.size(), 4u);
  EXPECT_TRUE(contains(cover, ex.p_a));
  EXPECT_TRUE(contains(cover, ex.p_b));
  EXPECT_TRUE(contains(cover, ex.p_m1));
  EXPECT_TRUE(contains(cover, ex.p_m2));
}

TEST(LowerCover, OfAIsM3M4) {
  // Definition 2's example: "the lower cover of machine A consists of
  // machines M3 and M4".
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_a);
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(contains(cover, ex.p_m3));
  EXPECT_TRUE(contains(cover, ex.p_m4));
}

TEST(LowerCover, OfM1IsM3M6) {
  // Section 5.1 walk-through: M6 and M3 are the candidates below M1.
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_m1);
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(contains(cover, ex.p_m3));
  EXPECT_TRUE(contains(cover, ex.p_m6));
}

TEST(LowerCover, OfTwoBlockPartitionIsBottom) {
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_m6);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], ex.p_bottom);
}

TEST(LowerCover, OfBottomIsEmpty) {
  const CanonicalExample ex;
  EXPECT_TRUE(lower_cover(ex.top, ex.p_bottom).empty());
}

TEST(LowerCover, NonClosedInputRejected) {
  const CanonicalExample ex;
  EXPECT_THROW((void)lower_cover(ex.top, pt({0, 0, 1, 2})),
               ContractViolation);
}

TEST(LowerCover, ElementsAreStrictlyBelowAndClosed) {
  const CanonicalExample ex;
  for (const Partition& p :
       {ex.p_top, ex.p_a, ex.p_b, ex.p_m1, ex.p_m2, ex.p_m5}) {
    for (const Partition& q : lower_cover(ex.top, p)) {
      EXPECT_TRUE(is_closed(ex.top, q));
      EXPECT_TRUE(Partition::less(q, p))
          << q.to_string() << " under " << p.to_string();
    }
  }
}

TEST(LowerCover, ElementsArePairwiseIncomparable) {
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_top);
  for (const auto& x : cover)
    for (const auto& y : cover) {
      if (x == y) continue;
      EXPECT_FALSE(Partition::leq(x, y));
    }
}

TEST(LowerCover, SerialAndParallelAgree) {
  const CanonicalExample ex;
  LowerCoverOptions serial;
  serial.parallel = false;
  LowerCoverOptions parallel;
  parallel.parallel = true;
  auto a = lower_cover(ex.top, ex.p_top, serial);
  auto b = lower_cover(ex.top, ex.p_top, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& p : a) EXPECT_TRUE(contains(b, p));
}

// Cross-check against the full lattice on random machines: the lower cover
// of each node must be exactly the maximal closed partitions strictly below
// it.
class LowerCoverVsLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerCoverVsLattice, MatchesLatticeDefinition) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 6;
  spec.num_events = 2;
  spec.seed = GetParam();
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  const ClosedPartitionLattice lattice = enumerate_lattice(m);
  ThreadPool pool(4);

  for (const LatticeNode& node : lattice.nodes) {
    // Reference: maximal strictly-below elements from the full lattice.
    std::vector<Partition> below;
    for (const LatticeNode& other : lattice.nodes)
      if (Partition::less(other.partition, node.partition))
        below.push_back(other.partition);
    std::vector<Partition> maximal;
    for (const auto& q : below) {
      bool dominated = false;
      for (const auto& r : below)
        if (!(q == r) && Partition::less(q, r)) {
          dominated = true;
          break;
        }
      if (!dominated) maximal.push_back(q);
    }

    const auto cover = lower_cover(m, node.partition);
    EXPECT_EQ(cover.size(), maximal.size())
        << "node " << node.partition.to_string();
    for (const auto& q : maximal)
      EXPECT_TRUE(contains(cover, q)) << q.to_string();

    // The fused evaluator: the classic cover, element for element, which
    // is the lattice definition's set.
    for (ThreadPool* fused_pool : {static_cast<ThreadPool*>(nullptr), &pool})
      EXPECT_EQ(lower_cover(m, node.partition, fused_options(fused_pool)),
                cover)
          << "node " << node.partition.to_string()
          << (fused_pool != nullptr ? " (fused, pool)" : " (fused, serial)");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerCoverVsLattice,
                         ::testing::Range<std::uint64_t>(1, 13));

// The sharded-hash parallel dedup + parallel maximality filter must emit
// exactly the serial post-pass's cover — same elements, same
// (first-occurrence) order — on any machine and at any thread count,
// because descent policies like kFirstFound are order-sensitive.

TEST(DedupEquivalence, ShardedMatchesSerialOnCatalogProduct) {
  const CrossProduct cp = ffsm::testing::counter_pair_product();
  const Partition identity = Partition::identity(cp.top.size());

  LowerCoverOptions legacy;
  legacy.sharded_dedup = false;
  const auto baseline = lower_cover(cp.top, identity, legacy);
  ASSERT_FALSE(baseline.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    LowerCoverOptions sharded;
    sharded.pool = &pool;
    sharded.sharded_dedup = true;
    EXPECT_EQ(lower_cover(cp.top, identity, sharded), baseline)
        << "threads=" << threads;
  }

  // Serial execution of the sharded algorithm is also bit-identical.
  LowerCoverOptions serial_sharded;
  serial_sharded.parallel = false;
  serial_sharded.sharded_dedup = true;
  EXPECT_EQ(lower_cover(cp.top, identity, serial_sharded), baseline);

  // So is the fused evaluator, serially and on a pool.
  EXPECT_EQ(lower_cover(cp.top, identity, fused_options(nullptr)), baseline);
  ThreadPool pool(4);
  EXPECT_EQ(lower_cover(cp.top, identity, fused_options(&pool)), baseline);
}

/// (states, seed) of a random 3-event machine.
using RandomTop = std::tuple<std::uint32_t, std::uint64_t>;

class DedupEquivalenceRandom : public ::testing::TestWithParam<RandomTop> {};

TEST_P(DedupEquivalenceRandom, ShardedMatchesSerialDownARandomLattice) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = std::get<0>(GetParam());
  spec.num_events = 3;
  spec.seed = std::get<1>(GetParam());
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);

  ThreadPool pool(4);
  LowerCoverOptions legacy;
  legacy.sharded_dedup = false;
  LowerCoverOptions sharded;
  sharded.pool = &pool;
  sharded.sharded_dedup = true;
  const LowerCoverOptions fused_serial = fused_options(nullptr);
  const LowerCoverOptions fused_pool = fused_options(&pool);

  // The fused evaluator stops the same pairs in one chunk (serial) as in
  // many (pool): each pair's bound is its own index.
  {
    obs::Obs serial_obs;
    obs::Obs pool_obs;
    LowerCoverOptions counted_serial = fused_serial;
    counted_serial.obs = &serial_obs;
    LowerCoverOptions counted_pool = fused_pool;
    counted_pool.obs = &pool_obs;
    const Partition identity = Partition::identity(m.size());
    (void)lower_cover(m, identity, counted_serial);
    (void)lower_cover(m, identity, counted_pool);
    EXPECT_EQ(serial_obs.snapshot().counters["gen.closure_pruned"],
              pool_obs.snapshot().counters["gen.closure_pruned"]);
  }

  // Walk a descent: compare the two post-passes and the fused evaluator
  // at every node, following the first cover element (order-sensitive, so
  // this also locks the ordering contract), plus every sibling's own
  // cover once.
  Partition current = Partition::identity(m.size());
  while (true) {
    const auto baseline = lower_cover(m, current, legacy);
    EXPECT_EQ(lower_cover(m, current, sharded), baseline)
        << current.to_string();
    EXPECT_EQ(lower_cover(m, current, fused_serial), baseline)
        << current.to_string();
    EXPECT_EQ(lower_cover(m, current, fused_pool), baseline)
        << current.to_string();
    if (baseline.empty()) break;
    for (const Partition& sibling : baseline) {
      const auto sibling_baseline = lower_cover(m, sibling, legacy);
      EXPECT_EQ(lower_cover(m, sibling, sharded), sibling_baseline)
          << sibling.to_string();
      EXPECT_EQ(lower_cover(m, sibling, fused_serial), sibling_baseline)
          << sibling.to_string();
      EXPECT_EQ(lower_cover(m, sibling, fused_pool), sibling_baseline)
          << sibling.to_string();
    }
    current = baseline.front();
  }
}

/// Seeds 1-8 of a 10-state machine.
std::vector<RandomTop> small_tops() {
  std::vector<RandomTop> tops;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) tops.emplace_back(10, seed);
  return tops;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupEquivalenceRandom,
                         ::testing::ValuesIn(small_tops()));

// Tops of more than 64 blocks: the identity's 4,560 and 11,175 block pairs
// span 3 and 6 of the fused evaluator's 2,048-pair chunks.
const RandomTop kWideTops[] = {{96, 1}, {96, 2}, {150, 1}};

INSTANTIATE_TEST_SUITE_P(WideTops, DedupEquivalenceRandom,
                         ::testing::ValuesIn(kWideTops));

TEST(LowerCoverCache, MemoizesWithoutChangingResults) {
  const ffsm::testing::CanonicalExample ex;
  LowerCoverCache cache;
  LowerCoverOptions options;
  options.cache = &cache;

  const auto cached = lower_cover_cached(ex.top, ex.p_a, options);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cached, lower_cover(ex.top, ex.p_a));

  // Second lookup: same shared value, no recomputation.
  const auto again = lower_cover_cached(ex.top, ex.p_a, options);
  EXPECT_EQ(again.get(), cached.get());
  EXPECT_EQ(cache.hits(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LowerCoverCache, NullCacheStillComputes) {
  const ffsm::testing::CanonicalExample ex;
  const auto cover = lower_cover_cached(ex.top, ex.p_a);
  EXPECT_EQ(*cover, lower_cover(ex.top, ex.p_a));
}

}  // namespace
}  // namespace ffsm
