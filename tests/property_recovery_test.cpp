// Randomized + exhaustive recovery properties: for random machine systems
// with generated fusions, EVERY crash subset within capacity and EVERY
// single-liar Byzantine pattern must recover the exact state — Theorem 6
// checked by brute force rather than by trusting the proof. The crash and
// single-liar sweeps also run on the fused runtime's reference system
// (MESI, TCP, paper A and B; a 176-state top) and check Theorem 6's edges:
// beyond f crashes the answer is ambiguous or right, never wrongly unique,
// and up to f colluding liars are always detected.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fusion/generator.hpp"
#include "recovery/detect.hpp"
#include "recovery/recovery.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

struct System {
  std::shared_ptr<Alphabet> alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  CrossProduct cross;
  std::vector<Partition> all;  // originals + fusion
};

/// Completes `s` from its machines: cross product, the originals'
/// partitions and Algorithm 2's backups for f.
System fuse(System s, std::uint32_t f) {
  s.cross = reachable_cross_product(s.machines);
  for (std::uint32_t i = 0; i < s.cross.machine_count(); ++i)
    s.all.emplace_back(s.cross.component_assignment(i));
  GenerateOptions options;
  options.f = f;
  FusionResult fusion = generate_fusion(s.cross.top, s.all, options);
  for (Partition& p : fusion.partitions) s.all.push_back(std::move(p));
  return s;
}

/// Two seeded random 4-state machines.
System build_system(std::uint64_t seed, std::uint32_t f) {
  System s;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = 4;
    spec.num_events = 2;
    spec.seed = seed * 131 + i;
    s.machines.push_back(make_random_connected_dfsm(
        s.alphabet, std::string("m").append(std::to_string(i)), spec));
  }
  return fuse(std::move(s), f);
}

/// The systems the crash and single-liar sweeps run on.
enum class SweptSystem { kRandomPair, kRecoverMix };
using SweepParam = std::tuple<SweptSystem, std::uint64_t>;  // kind, seed

System build_system(const SweepParam& param, std::uint32_t f) {
  const auto [kind, seed] = param;
  if (kind == SweptSystem::kRandomPair) return build_system(seed, f);
  System s;
  s.machines = testing::recover_mix_machines(s.alphabet);
  return fuse(std::move(s), f);
}

/// Enumerates all size-k subsets of [0, n) and calls fn on each.
template <typename Fn>
void for_each_subset(std::size_t n, std::size_t k, Fn&& fn) {
  std::vector<std::size_t> idx(k);
  const auto recurse = [&](auto&& self, std::size_t start,
                           std::size_t depth) -> void {
    if (depth == k) {
      fn(std::vector<std::size_t>(idx.begin(), idx.end()));
      return;
    }
    for (std::size_t i = start; i + (k - depth) <= n; ++i) {
      idx[depth] = i;
      self(self, i + 1, depth + 1);
    }
  };
  recurse(recurse, 0, 0);
}

bool contains(const std::vector<std::size_t>& set, std::size_t i) {
  return std::find(set.begin(), set.end(), i) != set.end();
}

class CrashRecoverySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrashRecoverySweep, EveryCrashSubsetRecoversOrStaysAmbiguous) {
  // Up to f crashes: the unique, exact state. Beyond f (Theorem 6's edge)
  // every survivor still reports honestly, so the truth holds the maximum
  // count and a unique answer can only be the truth.
  constexpr std::uint32_t kF = 2;
  const System s = build_system(GetParam(), kF);
  const std::uint32_t n = s.cross.top.size();

  for (std::size_t k = 0; k <= s.all.size(); ++k) {
    for_each_subset(s.all.size(), k, [&](const std::vector<std::size_t>&
                                             crashed) {
      for (State truth = 0; truth < n; ++truth) {
        std::vector<MachineReport> reports;
        for (std::size_t i = 0; i < s.all.size(); ++i)
          reports.push_back(contains(crashed, i)
                                ? MachineReport::crashed()
                                : MachineReport::of(s.all[i].block_of(truth)));
        const RecoveryResult r = recover(n, s.all, reports);
        if (k <= kF) {
          ASSERT_TRUE(r.unique) << "truth " << truth << " k " << k;
          ASSERT_EQ(r.top_state, truth);
        } else {
          ASSERT_EQ(r.counts[truth], r.max_count)
              << "truth " << truth << " k " << k;
          if (r.unique) {
            ASSERT_EQ(r.top_state, truth);
          }
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CrashRecoverySweep,
    ::testing::Combine(::testing::Values(SweptSystem::kRandomPair),
                       ::testing::Range<std::uint64_t>(1, 13)));
INSTANTIATE_TEST_SUITE_P(
    RecoverMix, CrashRecoverySweep,
    ::testing::Values(SweepParam{SweptSystem::kRecoverMix, 0}));

/// Wrong top states a colluding set may project: every one on a small top;
/// on a larger one the adversary's best pick (the wrong state whose blocks
/// the most machines share with the truth, as
/// FusedSystem::most_confusable_state picks it) and every 11th state.
std::vector<State> colluding_targets(const System& s, State truth) {
  const std::uint32_t n = s.cross.top.size();
  std::vector<State> targets;
  const State stride = n <= 32 ? 1 : 11;
  for (State t = 0; t < n; t += stride)
    if (t != truth) targets.push_back(t);
  if (stride == 1) return targets;
  std::optional<State> best;
  std::uint32_t best_support = 0;
  for (State t = 0; t < n; ++t) {
    if (t == truth) continue;
    std::uint32_t support = 0;
    for (const Partition& p : s.all)
      support += p.block_of(t) == p.block_of(truth);
    if (!best || support > best_support) {
      best = t;
      best_support = support;
    }
  }
  if (best) targets.push_back(*best);
  return targets;
}

class ByzantineRecoverySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ByzantineRecoverySweep, OneLiarRecoversAndUpToFLiarsAreDetected) {
  // f = 2 crash capacity == 1 Byzantine capacity: every liar, every wrong
  // block, every truth recovers exactly and is detected.
  constexpr std::uint32_t kF = 2;
  const System s = build_system(GetParam(), kF);
  const std::uint32_t n = s.cross.top.size();

  for (std::size_t liar = 0; liar < s.all.size(); ++liar) {
    for (State truth = 0; truth < n; ++truth) {
      for (std::uint32_t wrong = 0; wrong < s.all[liar].block_count();
           ++wrong) {
        if (wrong == s.all[liar].block_of(truth)) continue;
        std::vector<MachineReport> reports;
        for (std::size_t i = 0; i < s.all.size(); ++i)
          reports.push_back(MachineReport::of(
              i == liar ? wrong : s.all[i].block_of(truth)));
        const RecoveryResult r = recover(n, s.all, reports);
        ASSERT_TRUE(r.unique)
            << "liar " << liar << " truth " << truth << " wrong " << wrong;
        ASSERT_EQ(r.top_state, truth);
        ASSERT_FALSE(detect_byzantine_fault(n, s.all, reports).consistent);
      }
    }
  }

  // Theorem 6's edge: 1..f liars colluding on one wrong top state are
  // detected whenever one of them changed state. With dmin > f, a state in
  // every reported block would differ from the truth on at most f
  // machines, so it is the truth, which a changed liar's block excludes.
  for (std::size_t k = 1; k <= kF; ++k) {
    for_each_subset(s.all.size(), k, [&](const std::vector<std::size_t>&
                                             liars) {
      for (State truth = 0; truth < n; ++truth) {
        for (const State target : colluding_targets(s, truth)) {
          bool changed = false;
          std::vector<MachineReport> reports;
          for (std::size_t i = 0; i < s.all.size(); ++i) {
            const bool lies = contains(liars, i);
            const std::uint32_t block =
                s.all[i].block_of(lies ? target : truth);
            changed |= lies && block != s.all[i].block_of(truth);
            reports.push_back(MachineReport::of(block));
          }
          if (!changed) continue;
          ASSERT_FALSE(detect_byzantine_fault(n, s.all, reports).consistent)
              << "k " << k << " truth " << truth << " target " << target;
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ByzantineRecoverySweep,
    ::testing::Combine(::testing::Values(SweptSystem::kRandomPair),
                       ::testing::Range<std::uint64_t>(1, 13)));
INSTANTIATE_TEST_SUITE_P(
    RecoverMix, ByzantineRecoverySweep,
    ::testing::Values(SweepParam{SweptSystem::kRecoverMix, 0}));

class ByzantinePairSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByzantinePairSweep, TwoLiarsRecoverWithFEquals4) {
  // f = 4 -> 2 Byzantine faults. Sample liar pairs and wrong blocks
  // randomly (the full cube is large) but deterministically.
  const System s = build_system(GetParam(), 4);
  const std::uint32_t n = s.cross.top.size();
  Xoshiro256 rng(GetParam() * 7919);

  for (int trial = 0; trial < 200; ++trial) {
    const auto liar1 = static_cast<std::size_t>(rng.below(s.all.size()));
    auto liar2 = static_cast<std::size_t>(rng.below(s.all.size() - 1));
    if (liar2 >= liar1) ++liar2;
    const auto truth = static_cast<State>(rng.below(n));

    std::vector<MachineReport> reports;
    for (std::size_t i = 0; i < s.all.size(); ++i) {
      if (i == liar1 || i == liar2) {
        const std::uint32_t blocks = s.all[i].block_count();
        std::uint32_t wrong =
            static_cast<std::uint32_t>(rng.below(blocks));
        if (wrong == s.all[i].block_of(truth))
          wrong = (wrong + 1) % blocks;
        if (wrong == s.all[i].block_of(truth)) {
          // Single-block machine cannot lie; report truthfully.
          wrong = s.all[i].block_of(truth);
        }
        reports.push_back(MachineReport::of(wrong));
      } else {
        reports.push_back(MachineReport::of(s.all[i].block_of(truth)));
      }
    }
    const RecoveryResult r = recover(n, s.all, reports);
    ASSERT_TRUE(r.unique) << "trial " << trial;
    ASSERT_EQ(r.top_state, truth) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByzantinePairSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

class MixedFaultSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedFaultSweep, CrashesBelowCapacityWithLiveliness) {
  // Crashing fewer machines than capacity keeps recovery exact even when
  // the survivors are a strict subset — sampled across random run prefixes
  // so the truth is an arbitrary reachable state.
  const System s = build_system(GetParam(), 2);
  const std::uint32_t n = s.cross.top.size();
  Xoshiro256 rng(GetParam() * 271);

  for (int trial = 0; trial < 100; ++trial) {
    // Random reachable truth: walk a random word from the initial state.
    State truth = s.cross.top.initial();
    const auto steps = rng.below(30);
    for (std::uint64_t i = 0; i < steps; ++i) {
      const auto pos = static_cast<std::uint32_t>(
          rng.below(s.cross.top.events().size()));
      truth = s.cross.top.step_local(truth, pos);
    }
    // One random crash.
    const auto down = static_cast<std::size_t>(rng.below(s.all.size()));
    std::vector<MachineReport> reports;
    for (std::size_t i = 0; i < s.all.size(); ++i)
      reports.push_back(i == down
                            ? MachineReport::crashed()
                            : MachineReport::of(s.all[i].block_of(truth)));
    const RecoveryResult r = recover(n, s.all, reports);
    ASSERT_TRUE(r.unique);
    ASSERT_EQ(r.top_state, truth);
    ASSERT_TRUE(r.contradicting_machines.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedFaultSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ffsm
