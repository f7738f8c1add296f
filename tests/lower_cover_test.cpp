#include "partition/lower_cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <tuple>
#include <utility>
#include <vector>

#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fusion/generator.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "partition/closure.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::oracle_lower_cover;
using testing::pt;

bool contains(const std::vector<Partition>& v, const Partition& p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

/// lower_cover on the calling thread (pool == nullptr) or on `pool`.
LowerCoverOptions run_on(ThreadPool* pool) {
  LowerCoverOptions options;
  options.parallel = pool != nullptr;
  options.pool = pool;
  return options;
}

/// Every partition of n states: the restricted growth strings a[0] = 0,
/// a[i] <= 1 + max(a[0..i-1]), which are exactly the canonical
/// assignments. Bell(n) of them.
std::vector<Partition> all_partitions(std::uint32_t n) {
  std::vector<Partition> out;
  std::vector<std::uint32_t> a(n, 0);
  const auto extend = [&](const auto& self, std::uint32_t i,
                          std::uint32_t blocks) -> void {
    if (i == n) {
      out.emplace_back(a);
      return;
    }
    for (std::uint32_t b = 0; b <= blocks; ++b) {
      a[i] = b;
      self(self, i + 1, std::max(blocks, b + 1));
    }
  };
  extend(extend, 1, 1);
  return out;
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

// Cross-check against the lattice built by brute force on random machines,
// independent of lower_cover: the cover of each closed partition must be
// exactly the maximal closed partitions strictly below it.
class LowerCoverVsLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerCoverVsLattice, MatchesLatticeDefinition) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 6;
  spec.num_events = 2;
  spec.seed = GetParam();
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  ASSERT_EQ(m.size(), 6u);

  const std::vector<Partition> partitions = all_partitions(m.size());
  ASSERT_EQ(partitions.size(), 203u);  // Bell(6)
  std::vector<Partition> closed;
  for (const Partition& p : partitions)
    if (is_closed(m, p)) closed.push_back(p);
  ThreadPool pool(4);

  for (const Partition& node : closed) {
    std::vector<Partition> below;
    for (const Partition& other : closed)
      if (Partition::less(other, node)) below.push_back(other);
    std::vector<Partition> maximal;
    for (const Partition& q : below)
      if (std::none_of(below.begin(), below.end(), [&](const Partition& r) {
            return Partition::less(q, r);
          }))
        maximal.push_back(q);

    // The same set as the brute-force reference, in the oracle's order.
    const auto expected = oracle_lower_cover(m, node);
    for (ThreadPool* on : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(node.to_string() + (on ? " on the pool" : " serially"));
      const auto cover = lower_cover(m, node, run_on(on));
      EXPECT_EQ(cover.size(), maximal.size());
      for (const Partition& q : maximal) EXPECT_TRUE(contains(cover, q));
      EXPECT_EQ(cover, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerCoverVsLattice,
                         ::testing::Range<std::uint64_t>(1, 13));

// lower_cover must emit exactly the oracle's cover — same elements, same
// (first-occurrence) order — on any machine and at any thread count,
// because descent policies like kFirstFound are order-sensitive.

TEST(DedupEquivalence, MatchesOracleOnCatalogProduct) {
  // Two 8-state counters (2 events), and MESI x TCP (44 states, 14 events).
  auto al = Alphabet::create();
  std::vector<Dfsm> protocols;
  protocols.push_back(make_mesi(al));
  protocols.push_back(make_tcp(al));
  std::vector<CrossProduct> tops;
  tops.push_back(ffsm::testing::counter_pair_product());
  tops.push_back(reachable_cross_product(protocols));
  for (const CrossProduct& cp : tops) {
    SCOPED_TRACE(::testing::Message() << cp.top.size() << "-state top");
    const Partition identity = Partition::identity(cp.top.size());
    const auto expected = oracle_lower_cover(cp.top, identity);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(lower_cover(cp.top, identity, run_on(nullptr)), expected);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(lower_cover(cp.top, identity, run_on(&pool)), expected)
          << "threads=" << threads;
    }
  }
}

TEST(DedupEquivalence, MatchesOracleOnACycleAndALasso) {
  // One event over two components: a 4-cycle (states 0-3), then a
  // 40-state path (4-43) running into a 40-cycle (44-83). The identity's
  // cover takes the 4-cycle's halving from pair 1 and the lasso's maximal
  // elements from pairs in the thousands. On the 40-cycle the pairs at
  // distance d form one sink component, and distances with the same gcd
  // with 40 close to the same partition, so many sinks repeat a closure.
  auto al = Alphabet::create();
  DfsmBuilder b("two-components", al);
  b.states(84, "s");
  const EventId e = b.event("e");
  for (State s = 0; s < 4; ++s) b.transition(s, e, (s + 1) % 4);
  for (State s = 4; s < 44; ++s) b.transition(s, e, s + 1);
  for (State s = 44; s < 84; ++s) b.transition(s, e, 44 + (s - 43) % 40);
  const Dfsm m = b.build(/*allow_unreachable=*/true);
  const Partition identity = Partition::identity(m.size());

  // The identity with each listed pair of states sharing a block.
  const auto joined = [&](std::initializer_list<std::pair<State, State>> ps) {
    std::vector<std::uint32_t> assignment(m.size());
    for (State s = 0; s < m.size(); ++s) assignment[s] = s;
    for (const auto& [a, b] : ps) assignment[b] = a;
    return Partition(std::move(assignment));
  };
  const auto expected = oracle_lower_cover(m, identity);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected.front(), joined({{0, 2}, {1, 3}}));  // pair 1
  EXPECT_TRUE(contains(expected, joined({{43, 83}})));    // pair 2,705
  EXPECT_EQ(lower_cover(m, identity, run_on(nullptr)), expected);
  ThreadPool pool(4);
  EXPECT_EQ(lower_cover(m, identity, run_on(&pool)), expected);
}

/// (states, events, seed) of a random machine.
using RandomTop = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

class DedupEquivalenceRandom : public ::testing::TestWithParam<RandomTop> {};

TEST_P(DedupEquivalenceRandom, MatchesOracleDownARandomLattice) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  std::tie(spec.states, spec.num_events, spec.seed) = GetParam();
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);

  ThreadPool pool(4);
  const LowerCoverOptions serial = run_on(nullptr);
  const LowerCoverOptions pooled = run_on(&pool);

  // Every element of the identity's cover is some sink's closure.
  {
    obs::Obs obs;
    LowerCoverOptions counted = pooled;
    counted.obs = &obs;
    const auto cover = lower_cover(m, Partition::identity(m.size()), counted);
    EXPECT_GE(obs.snapshot().counters["gen.sink_components"], cover.size());
  }

  // Walk a descent: compare against the oracle at every node, following
  // the first cover element (order-sensitive, so this also locks the
  // ordering contract), plus every sibling's own cover once.
  Partition current = Partition::identity(m.size());
  while (true) {
    const auto expected = oracle_lower_cover(m, current);
    EXPECT_EQ(lower_cover(m, current, serial), expected)
        << current.to_string();
    EXPECT_EQ(lower_cover(m, current, pooled), expected)
        << current.to_string();
    if (expected.empty()) break;
    for (const Partition& sibling : expected) {
      const auto sibling_expected = oracle_lower_cover(m, sibling);
      EXPECT_EQ(lower_cover(m, sibling, serial), sibling_expected)
          << sibling.to_string();
      EXPECT_EQ(lower_cover(m, sibling, pooled), sibling_expected)
          << sibling.to_string();
    }
    current = expected.front();
  }
}

/// Seeds 1-8 of a 10-state, 3-event machine.
std::vector<RandomTop> small_tops() {
  std::vector<RandomTop> tops;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    tops.emplace_back(10, 3, seed);
  return tops;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupEquivalenceRandom,
                         ::testing::ValuesIn(small_tops()));

// Tops of more than 64 blocks: the identity's 4,560 and 11,175 block pairs
// make deep searches.
const RandomTop kWideTops[] = {{96, 3, 1}, {96, 3, 2}, {150, 3, 1}};

INSTANTIATE_TEST_SUITE_P(WideTops, DedupEquivalenceRandom,
                         ::testing::ValuesIn(kWideTops));

// Many events: a pair has up to 8 or 16 out-edges, and the search stops a
// DFS at the first one that reaches a dead or sink pair. These random
// machines have only the trivial closed partitions, so the single block is
// the whole cover.
// MatchesOracleOnCatalogProduct and generator_test's recover top cover
// many-event tops with richer lattices.
std::vector<RandomTop> many_event_tops() {
  std::vector<RandomTop> tops;
  for (const std::uint32_t states : {10u, 96u})
    for (const std::uint32_t events : {8u, 16u})
      for (const std::uint64_t seed : {1u, 2u})
        tops.emplace_back(states, events, seed);
  return tops;
}

INSTANTIATE_TEST_SUITE_P(ManyEvents, DedupEquivalenceRandom,
                         ::testing::ValuesIn(many_event_tops()));

// Three one-event machines, each built so that one step after the sink
// search decides the cover: the maximality filter, the dedup and the sort.

/// A machine over states 0..n-1 with one event "e" taking s to next[s].
Dfsm one_event_machine(const std::vector<State>& next) {
  auto al = Alphabet::create();
  DfsmBuilder b("one-event", al);
  b.states(static_cast<std::uint32_t>(next.size()), "s");
  const EventId e = b.event("e");
  for (State s = 0; s < next.size(); ++s) b.transition(s, e, next[s]);
  return b.build(/*allow_unreachable=*/true);
}

/// lower_cover of the identity with its sink count, serially and on a pool,
/// checked against the oracle.
std::pair<std::vector<Partition>, std::uint64_t> identity_cover(
    const Dfsm& m) {
  const Partition identity = Partition::identity(m.size());
  const auto expected = oracle_lower_cover(m, identity);
  ThreadPool pool(2);
  obs::Obs obs;
  LowerCoverOptions options = run_on(&pool);
  options.obs = &obs;
  const auto cover = lower_cover(m, identity, options);
  EXPECT_EQ(cover, expected);
  EXPECT_EQ(lower_cover(m, identity, run_on(nullptr)), expected);
  return {cover, obs.snapshot().counters["gen.sink_components"]};
}

TEST(SinkSearch, FilterDropsASinkClosureBelowAnother) {
  // A 4-cycle: pairs at distance 1 form one sink and close to the single
  // block; pairs at distance 2 form the other and close to {0,2}{1,3},
  // which lies above it. Only the latter is maximal.
  const auto [cover, sinks] = identity_cover(one_event_machine({1, 2, 3, 0}));
  EXPECT_EQ(sinks, 2u);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], pt({0, 1, 0, 1}));
}

TEST(SinkSearch, SinksWithOneClosureGiveOneElement) {
  // A 5-cycle: pairs at distance 1 and at distance 2 form two sinks, and
  // both close to the single block (5 is prime), which appears once.
  const auto [cover, sinks] =
      identity_cover(one_event_machine({1, 2, 3, 4, 0}));
  EXPECT_EQ(sinks, 2u);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], Partition::single_block(5));
}

TEST(SinkSearch, OrderFollowsTheSmallestUnitedPairNotTheSearch) {
  // e takes 0 to 2, 1 to 3, and 2 and 3 to 2. The search starts at pair
  // (0,1), whose edge leads to (2,3), so the sink {(2,3)} is found first.
  // The sinks {(0,2)} and {(0,3)} come after it, yet their closures unite
  // smaller pairs and come first in the cover.
  const auto [cover, sinks] = identity_cover(one_event_machine({2, 3, 2, 2}));
  EXPECT_EQ(sinks, 3u);
  ASSERT_EQ(cover.size(), 3u);
  EXPECT_EQ(cover[0], pt({0, 1, 0, 2}));
  EXPECT_EQ(cover[1], pt({0, 1, 2, 0}));
  EXPECT_EQ(cover[2], pt({0, 1, 2, 2}));
}

/// Sink components of p's block-pair graph, counted from the definition:
/// a pair is in a sink iff every pair it reaches reaches it back, and the
/// pairs of one sink share their reachable set. One search per pair, so
/// only for small partitions.
std::size_t oracle_sink_count(const Dfsm& m, const Partition& p) {
  const std::uint32_t blocks = p.block_count();
  std::vector<State> rep(blocks, kInvalidState);
  for (State s = 0; s < p.size(); ++s)
    if (rep[p.block_of(s)] == kInvalidState) rep[p.block_of(s)] = s;
  const std::size_t pairs = std::size_t{blocks} * (blocks - 1) / 2;
  std::vector<std::vector<std::size_t>> edges(pairs);
  for (std::uint32_t i = 0; i < blocks; ++i)
    for (std::uint32_t j = i + 1; j < blocks; ++j)
      for (std::uint32_t e = 0; e < m.events().size(); ++e) {
        const std::uint32_t a = p.block_of(m.step_local(rep[i], e));
        const std::uint32_t b = p.block_of(m.step_local(rep[j], e));
        if (a != b)
          edges[block_pair_index(i, j, blocks)].push_back(
              block_pair_index(std::min(a, b), std::max(a, b), blocks));
      }
  std::vector<std::vector<bool>> reach(pairs, std::vector<bool>(pairs));
  for (std::size_t from = 0; from < pairs; ++from) {
    std::vector<std::size_t> frontier{from};
    reach[from][from] = true;
    while (!frontier.empty()) {
      const std::size_t q = frontier.back();
      frontier.pop_back();
      for (const std::size_t r : edges[q])
        if (!reach[from][r]) {
          reach[from][r] = true;
          frontier.push_back(r);
        }
    }
  }
  std::vector<std::vector<bool>> sinks;
  for (std::size_t q = 0; q < pairs; ++q) {
    bool in_sink = true;
    for (std::size_t r = 0; r < pairs && in_sink; ++r)
      in_sink = !reach[q][r] || reach[r][q];
    if (in_sink && std::find(sinks.begin(), sinks.end(), reach[q]) ==
                       sinks.end())
      sinks.push_back(reach[q]);
  }
  return sinks.size();
}

TEST(SinkSearch, MatchesOracleOnEveryCoverTheDescentsReach) {
  // 300 seeded products of two random machines (3-12 states each, 2-4
  // shared events). For each: every cover Algorithm 2's descents reach at
  // f = 1-3, read back from the shared cache they filled, plus the covers
  // of the two originals.
  std::size_t covers = 0;
  std::size_t counted = 0;  // covers whose sinks were counted independently
  std::size_t multi_element = 0;
  std::size_t more_sinks_than_elements = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Xoshiro256 rng(seed);
    auto al = Alphabet::create();
    const auto events = static_cast<std::uint32_t>(2 + rng.below(3));
    std::vector<Dfsm> machines;
    for (const char* const name : {"m0", "m1"}) {
      RandomDfsmSpec spec;
      spec.states = static_cast<std::uint32_t>(3 + rng.below(10));
      spec.num_events = events;
      spec.seed = 2 * seed + machines.size();
      machines.push_back(make_random_connected_dfsm(al, name, spec));
    }
    const CrossProduct cp = reachable_cross_product(machines);
    const auto originals = ffsm::testing::component_partitions(cp);

    LowerCoverCache cache(1u << 16);
    for (const std::uint32_t f : {1u, 2u, 3u}) {
      GenerateOptions options;
      options.f = f;
      options.parallel = false;
      options.cache = &cache;
      (void)generate_fusion(cp.top, originals, options);
    }
    std::vector<WarmCacheEntry> nodes = cache.export_hot(cache.size());
    for (const Partition& original : originals)
      nodes.push_back({original, lower_cover(cp.top, original)});
    for (const auto& [node, cached] : nodes) {
      const auto expected = oracle_lower_cover(cp.top, node);
      EXPECT_EQ(cached, expected)
          << "seed " << seed << " below " << node.to_string();
      obs::Obs obs;
      LowerCoverOptions options = run_on(nullptr);
      options.obs = &obs;
      const auto cover = lower_cover(cp.top, node, options);
      EXPECT_EQ(cover, expected);
      const std::uint64_t sinks =
          obs.snapshot().counters["gen.sink_components"];
      if (node.block_count() <= 24) {
        EXPECT_EQ(sinks, oracle_sink_count(cp.top, node))
            << "seed " << seed << " below " << node.to_string();
        ++counted;
      }
      ++covers;
      if (cover.size() > 1) ++multi_element;
      if (sinks > cover.size()) ++more_sinks_than_elements;
    }
  }
  // The sweep must reach the cases the filter, the dedup and the sort are
  // for.
  EXPECT_GT(multi_element, 0u) << covers << " covers";
  EXPECT_GT(more_sinks_than_elements, 0u) << covers << " covers";
  EXPECT_GT(counted, covers / 2) << covers << " covers";
}

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
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LowerCoverCache, NullCacheStillComputes) {
  const ffsm::testing::CanonicalExample ex;
  const auto cover = lower_cover_cached(ex.top, ex.p_a);
  EXPECT_EQ(*cover, lower_cover(ex.top, ex.p_a));
}

}  // namespace
}  // namespace ffsm
