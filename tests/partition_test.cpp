#include "partition/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "test_support.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using testing::pt;

TEST(Partition, NormalizesArbitraryTags) {
  const Partition p(std::vector<std::uint32_t>{7, 3, 7, 9});
  EXPECT_EQ(p.block_count(), 3u);
  EXPECT_EQ(p.block_of(0), 0u);
  EXPECT_EQ(p.block_of(1), 1u);
  EXPECT_EQ(p.block_of(2), 0u);
  EXPECT_EQ(p.block_of(3), 2u);
}

TEST(Partition, EmptyAssignmentRejected) {
  EXPECT_THROW(Partition(std::vector<std::uint32_t>{}), ContractViolation);
}

TEST(Partition, IdentityHasSingletonBlocks) {
  const Partition p = Partition::identity(5);
  EXPECT_EQ(p.block_count(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(p.block_of(i), i);
}

TEST(Partition, SingleBlockGroupsEverything) {
  const Partition p = Partition::single_block(5);
  EXPECT_EQ(p.block_count(), 1u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(p.block_of(i), 0u);
}

TEST(Partition, SeparatesIsBlockInequality) {
  const Partition p = pt({0, 1, 2, 0});
  EXPECT_FALSE(p.separates(0, 3));
  EXPECT_TRUE(p.separates(0, 1));
  EXPECT_TRUE(p.separates(1, 2));
}

TEST(Partition, BlocksListsSortedMembers) {
  const Partition p = pt({0, 1, 0, 2, 1});
  const auto blocks = p.blocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(blocks[1], (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(blocks[2], (std::vector<std::uint32_t>{3}));
}

TEST(Partition, EqualityIsStructural) {
  EXPECT_EQ(pt({0, 1, 0}), Partition(std::vector<std::uint32_t>{5, 9, 5}));
  EXPECT_FALSE(pt({0, 1, 0}) == pt({0, 1, 1}));
}

TEST(Partition, HashAgreesOnEqualPartitions) {
  const Partition a = pt({0, 1, 0});
  const Partition b = Partition(std::vector<std::uint32_t>{4, 2, 4});
  EXPECT_EQ(a.hash(), b.hash());
}

/// The normalizer's definition: number tags by first occurrence through a
/// std::map.
std::vector<std::uint32_t> map_renumbered(
    const std::vector<std::uint32_t>& tags) {
  std::map<std::uint32_t, std::uint32_t> number;
  std::vector<std::uint32_t> out;
  out.reserve(tags.size());
  for (const std::uint32_t t : tags) {
    const auto next = static_cast<std::uint32_t>(number.size());
    out.push_back(number.emplace(t, next).first->second);
  }
  return out;
}

/// The partition of `tags` must match map_renumbered element for element,
/// in block count and in hash.
void expect_renumbered(const std::vector<std::uint32_t>& tags) {
  const std::vector<std::uint32_t> expected = map_renumbered(tags);
  const Partition p(tags);
  ASSERT_TRUE(std::ranges::equal(p.assignment(), expected));
  const std::set<std::uint32_t> distinct(tags.begin(), tags.end());
  EXPECT_EQ(p.block_count(), distinct.size());
  EXPECT_EQ(p.hash(), fnv1a(expected));
}

TEST(Partition, NormalizerMatchesAMapRenumberingOnEveryPath) {
  // Three kinds of input: tags already numbered by first occurrence (the
  // constructor keeps them after one read-only pass), dense tags below
  // twice the element count in another order, and sparse tags up to
  // 0xFFFFFFFF (both renumbered through the hash map).
  Xoshiro256 rng(41);
  int renumbered[3] = {0, 0, 0};
  for (int trial = 0; trial < 600; ++trial) {
    const int kind = trial % 3;
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const auto n = static_cast<std::uint32_t>(1 + rng.below(300));
    const auto blocks = static_cast<std::uint32_t>(1 + rng.below(n));
    std::vector<std::uint32_t> tags(n);
    for (auto& t : tags) t = static_cast<std::uint32_t>(rng.below(blocks));
    tags = map_renumbered(tags);
    std::vector<std::uint32_t> image(blocks);
    if (kind == 1) {
      // Distinct tags drawn from [0, 2n).
      std::vector<std::uint32_t> pool(2 * n);
      std::iota(pool.begin(), pool.end(), 0u);
      std::shuffle(pool.begin(), pool.end(), rng);
      std::copy_n(pool.begin(), blocks, image.begin());
    } else if (kind == 2) {
      // Distinct 32-bit tags; the first block takes the largest.
      std::set<std::uint32_t> used{0xFFFFFFFFu};
      image[0] = 0xFFFFFFFFu;
      for (std::uint32_t b = 1; b < blocks; ++b) {
        std::uint32_t tag = 0;
        do {
          tag = static_cast<std::uint32_t>(rng() >> 32);
        } while (!used.insert(tag).second);
        image[b] = tag;
      }
    }
    if (kind != 0)
      for (auto& t : tags) t = image[t];
    if (tags != map_renumbered(tags)) ++renumbered[kind];
    expect_renumbered(tags);
  }
  // The already numbered kind never renumbers; the others nearly always do.
  EXPECT_EQ(renumbered[0], 0);
  EXPECT_GT(renumbered[1], 150);
  EXPECT_EQ(renumbered[2], 200);
}

TEST(Partition, NormalizerBoundaryTags) {
  // The read-only pass must hand over to the hash map at the first tag
  // that skips a number, wherever it stands: first, last, or after a
  // numbered prefix. Every input must agree with the definition.
  expect_renumbered({0});
  expect_renumbered({0, 1, 2, 1, 0});
  expect_renumbered({0xFFFFFFFFu});
  expect_renumbered({1});
  expect_renumbered({0, 1, 2, 4});
  expect_renumbered({0, 0, 1, 3, 2});
  expect_renumbered({0, 1, 0xFFFFFFFFu, 1});
  expect_renumbered({1, 0, 0xFFFFFFFFu, 1});
}

// Order semantics (paper: P1 <= P2 iff each block of P2 inside a block of
// P1, i.e. "less" = coarser).

TEST(PartitionOrder, BottomIsLeastTopIsGreatest) {
  const Partition top = Partition::identity(4);
  const Partition bottom = Partition::single_block(4);
  EXPECT_TRUE(Partition::leq(bottom, top));
  EXPECT_FALSE(Partition::leq(top, bottom));
  EXPECT_TRUE(Partition::leq(bottom, bottom));
  EXPECT_TRUE(Partition::leq(top, top));
}

TEST(PartitionOrder, PaperExampleM1LeqTop) {
  // Fig. 2: "each block of R({A,B}) is contained in a block of M1, hence
  // M1 <= R({A,B})".
  const testing::CanonicalExample ex;
  EXPECT_TRUE(Partition::leq(ex.p_m1, ex.p_top));
  EXPECT_FALSE(Partition::leq(ex.p_top, ex.p_m1));
}

TEST(PartitionOrder, M3BelowBothAandM1) {
  // M3 = {t0,t2,t3}{t1} sits below A and below M1 (shared lower cover).
  const testing::CanonicalExample ex;
  EXPECT_TRUE(Partition::leq(ex.p_m3, ex.p_a));
  EXPECT_TRUE(Partition::leq(ex.p_m3, ex.p_m1));
}

TEST(PartitionOrder, BasisElementsIncomparable) {
  const testing::CanonicalExample ex;
  const Partition basis[] = {ex.p_a, ex.p_b, ex.p_m1, ex.p_m2};
  for (const auto& x : basis)
    for (const auto& y : basis) {
      if (x == y) continue;
      EXPECT_FALSE(Partition::leq(x, y)) << x.to_string() << " vs "
                                         << y.to_string();
    }
}

TEST(PartitionOrder, LessIsStrict) {
  const testing::CanonicalExample ex;
  EXPECT_TRUE(Partition::less(ex.p_m3, ex.p_a));
  EXPECT_FALSE(Partition::less(ex.p_a, ex.p_a));
}

TEST(PartitionOrder, Transitivity) {
  const testing::CanonicalExample ex;
  // bottom <= M3 <= A <= top.
  EXPECT_TRUE(Partition::leq(ex.p_bottom, ex.p_m3));
  EXPECT_TRUE(Partition::leq(ex.p_m3, ex.p_a));
  EXPECT_TRUE(Partition::leq(ex.p_a, ex.p_top));
  EXPECT_TRUE(Partition::leq(ex.p_bottom, ex.p_top));
}

TEST(PartitionOrder, MismatchedSizesThrow) {
  EXPECT_THROW((void)Partition::leq(pt({0, 1}), pt({0, 1, 2})),
               ContractViolation);
}

TEST(Partition, ToStringShowsBlocks) {
  EXPECT_EQ(pt({0, 1, 2, 0}).to_string(), "{0,3}{1}{2}");
  EXPECT_EQ(Partition::single_block(3).to_string(), "{0,1,2}");
}

TEST(Partition, ToStringWithNames) {
  const testing::CanonicalExample ex;
  const auto name = [&](std::uint32_t s) { return ex.top.state_name(s); };
  EXPECT_EQ(ex.p_a.to_string(name), "{t0,t3}{t1}{t2}");
  EXPECT_EQ(ex.p_m6.to_string(name), "{t0,t1,t2}{t3}");
}

TEST(Partition, BlockOfOutOfRangeThrows) {
  const Partition p = pt({0, 1});
  EXPECT_THROW((void)p.block_of(2), ContractViolation);
}

}  // namespace
}  // namespace ffsm
