#include "partition/closure.hpp"

#include <gtest/gtest.h>

#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::pt;

TEST(IsClosed, AllTenCanonicalPartitionsAreClosed) {
  const CanonicalExample ex;
  const Partition all[] = {ex.p_top, ex.p_a,  ex.p_b,  ex.p_m1, ex.p_m2,
                           ex.p_m3,  ex.p_m4, ex.p_m5, ex.p_m6, ex.p_bottom};
  for (const auto& p : all)
    EXPECT_TRUE(is_closed(ex.top, p)) << p.to_string();
}

TEST(IsClosed, RejectsNonClosedPartition) {
  const CanonicalExample ex;
  // {t0,t1}{t2}{t3}: on event 0, t0->t1 and t1->t2 leave the block for
  // different blocks — not closed.
  EXPECT_FALSE(is_closed(ex.top, pt({0, 0, 1, 2})));
  // {t0}{t1,t3}{t2}: on event 0, t1->t2 and t3->t1 split.
  EXPECT_FALSE(is_closed(ex.top, pt({0, 1, 2, 1})));
}

TEST(IsClosed, IdentityAndSingleBlockAlwaysClosed) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 9;
  spec.num_events = 2;
  spec.seed = 13;
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  EXPECT_TRUE(is_closed(m, Partition::identity(9)));
  EXPECT_TRUE(is_closed(m, Partition::single_block(9)));
}

TEST(MergeClosure, PaperPairMerges) {
  // The six pairwise merges of the canonical top reproduce the basis and
  // M5/M6 exactly (DESIGN.md section 2 derivation).
  const CanonicalExample ex;
  const auto closure_of = [&](State x, State y) {
    const std::pair<State, State> pairs[] = {{x, y}};
    return merge_closure(ex.top, ex.p_top, pairs);
  };
  EXPECT_EQ(closure_of(0, 3), ex.p_a);   // merge(t0,t3) -> A
  EXPECT_EQ(closure_of(2, 3), ex.p_b);   // merge(t2,t3) -> B
  EXPECT_EQ(closure_of(0, 2), ex.p_m1);  // merge(t0,t2) -> M1
  EXPECT_EQ(closure_of(1, 2), ex.p_m2);  // merge(t1,t2) -> M2
  EXPECT_EQ(closure_of(1, 3), ex.p_m5);  // merge(t1,t3) -> M5 (cascades)
  EXPECT_EQ(closure_of(0, 1), ex.p_m6);  // merge(t0,t1) -> M6 (cascades)
}

TEST(MergeClosure, EmptyMergeReturnsBase) {
  const CanonicalExample ex;
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, {}), ex.p_a);
}

TEST(MergeClosure, MergingWithinABlockIsIdentity) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 3}};  // same block of A
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, pairs), ex.p_a);
}

TEST(MergeClosure, CascadeToBottom) {
  // Merging t1,t3 inside M1 = {t0,t2}{t1}{t3} cascades to bottom:
  // successors force {t0,t2} in as well.
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{1, 3}};
  EXPECT_EQ(merge_closure(ex.top, ex.p_m1, pairs), ex.p_bottom);
}

TEST(MergeClosure, FromAToM3) {
  // Below A = {t0,t3}{t1}{t2}: merging blocks of t0 and t2 yields
  // M3 = {t0,t2,t3}{t1}.
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 2}};
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, pairs), ex.p_m3);
}

TEST(MergeClosure, FromAToM4) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{1, 2}};
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, pairs), ex.p_m4);
}

TEST(MergeClosure, MultiplePairsAtOnce) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 2}, {1, 3}};
  // merge(t0,t2) -> M1; then t1~t3 within M1 cascades to bottom.
  EXPECT_EQ(merge_closure(ex.top, ex.p_top, pairs), ex.p_bottom);
}

TEST(MergeClosure, NonClosedBaseIsRepaired) {
  // Seeding with a non-closed base must still produce a closed result that
  // is <= the base.
  const CanonicalExample ex;
  const Partition base = pt({0, 0, 1, 2});  // {t0,t1}{t2}{t3}: not closed
  const Partition result = merge_closure(ex.top, base, {});
  EXPECT_TRUE(is_closed(ex.top, result));
  EXPECT_TRUE(Partition::leq(result, base));
  // t0~t1 forces t1~t2 (event 0), then t2~t3? t1 -1-> t3, t0 -1-> t3: fine;
  // t0,t1,t2 together force nothing about t3 beyond event-1 images (all t3).
  EXPECT_EQ(result, ex.p_m6);
}

TEST(MergeClosure, OutOfRangePairThrows) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 9}};
  EXPECT_THROW((void)merge_closure(ex.top, ex.p_top, pairs),
               ContractViolation);
}

TEST(BlockPairIndex, NumbersPairsLexicographically) {
  for (std::uint32_t blocks = 2; blocks <= 200; ++blocks) {
    std::size_t k = 0;
    for (std::uint32_t i = 0; i < blocks; ++i)
      for (std::uint32_t j = i + 1; j < blocks; ++j, ++k)
        ASSERT_EQ(block_pair_index(i, j, blocks), k)
            << "pair (" << i << ", " << j << ") of " << blocks << " blocks";
  }
}

/// MergeClosureEngine::evaluate against merge_closure for every block pair
/// of `base`, on one engine reused across all pairs: the same partition and
/// its hash.
void expect_engine_matches_merge_closure(const Dfsm& m,
                                         const Partition& base) {
  const std::uint32_t blocks = base.block_count();
  std::vector<State> rep(blocks, kInvalidState);
  for (State s = 0; s < base.size(); ++s)
    if (rep[base.block_of(s)] == kInvalidState) rep[base.block_of(s)] = s;

  MergeClosureEngine engine(m, base);
  for (std::uint32_t i = 0; i < blocks; ++i)
    for (std::uint32_t j = i + 1; j < blocks; ++j) {
      const std::size_t hash = engine.evaluate(rep[i], rep[j]);
      const std::span<const std::uint32_t> canon = engine.assignment();
      const Partition closure{{canon.begin(), canon.end()}};
      const std::pair<State, State> pair[] = {{rep[i], rep[j]}};
      EXPECT_EQ(closure, merge_closure(m, base, pair))
          << "pair (" << i << ", " << j << ")";
      EXPECT_EQ(hash, closure.hash()) << "pair (" << i << ", " << j << ")";
      EXPECT_EQ(engine.block_count(), closure.block_count());
    }
}

TEST(MergeClosure, EngineMatchesOnAManyEventProduct) {
  // MESI x TCP: 44 states and 14 events, so a union has many successor
  // pairs.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mesi(al));
  machines.push_back(make_tcp(al));
  const CrossProduct cp = reachable_cross_product(machines);
  ASSERT_EQ(cp.top.size(), 44u);
  ASSERT_EQ(cp.top.events().size(), 14u);
  expect_engine_matches_merge_closure(cp.top, Partition::identity(44));
}

/// (seed, event count) of a random 8-state machine.
using SweepCase = std::tuple<std::uint64_t, std::uint32_t>;

// Property sweep over random machines: the closure is closed, coarser than
// the base, contains the requested pair, and is the *finest* such partition
// (checked against every closed partition obtained by brute force on tiny
// machines — here approximated: re-closing is a fixpoint and re-merging is
// idempotent).
class MergeClosureSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MergeClosureSweep, ClosureProperties) {
  const auto [seed, events] = GetParam();
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 8;
  spec.num_events = events;
  spec.seed = seed;
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  const Partition top = Partition::identity(m.size());

  Xoshiro256 rng(seed * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = static_cast<State>(rng.below(m.size()));
    const auto y = static_cast<State>(rng.below(m.size()));
    const std::pair<State, State> pairs[] = {{x, y}};
    const Partition q = merge_closure(m, top, pairs);

    EXPECT_TRUE(is_closed(m, q));
    EXPECT_TRUE(Partition::leq(q, top));
    EXPECT_FALSE(q.separates(x, y));
    // Idempotent: closing again with the same pair changes nothing.
    EXPECT_EQ(merge_closure(m, q, pairs), q);
    // The engine on a closed base below the identity.
    if (q.block_count() > 1) expect_engine_matches_merge_closure(m, q);
  }
  expect_engine_matches_merge_closure(m, top);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MergeClosureSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values(2u, 5u, 8u)));

}  // namespace
}  // namespace ffsm
