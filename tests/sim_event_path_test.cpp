// Differential test of FusedSystem's event path. The oracle keeps the plain
// semantics of the paper's model (§2): every server receives every event
// and steps with Dfsm::step, which ignores events outside the machine's
// event set, and a crashed server counts each subscribed event it drops.
// The system delivers through its routing table instead. On seeded streams
// with foreign ids, crashes, corruptions and recover() calls mixed in, both
// must hold the same ghost state, server states, drop count and journal
// after every event.
//
// The same loop pins the round's other steps: most_confusable_state()
// against the oracle's own count of support, and FusedSystem::recover()
// against the free Algorithm 3 on the same reports().
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "recovery/recovery.hpp"
#include "sim/system.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

/// Today's semantics on copies of the system's machines: the ghost and
/// every server step with Dfsm::step on every event.
class Oracle {
 public:
  explicit Oracle(const FusedSystem& system)
      : top_(system.top()), ghost_(system.ghost_top_state()) {
    const CrossProduct& cross = system.cross_product();
    for (std::size_t i = 0; i < system.servers().size(); ++i) {
      const Server& server = system.servers()[i];
      machines_.push_back(server.machine());
      states_.push_back(server.state());
      // projection_[i][t]: server i's state when the top is in state t
      // (an original's tuple component, a backup's partition block).
      std::vector<State> projection(top_.size());
      for (State t = 0; t < top_.size(); ++t)
        projection[t] = i < system.original_count()
                            ? cross.tuples[t][i]
                            : system.partitions()[i].block_of(t);
      projection_.push_back(std::move(projection));
    }
  }

  void apply(EventId event) {
    journal_.push_back(event);
    ghost_ = top_.step(ghost_, event);
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      if (!states_[i]) {
        if (machines_[i].subscribes(event)) ++dropped_;
        continue;
      }
      states_[i] = machines_[i].step(*states_[i], event);
    }
  }

  void crash(std::size_t server) { states_[server].reset(); }
  void adopt(std::size_t server, State state) { states_[server] = state; }
  void restore_all(State top_state) {
    for (std::size_t i = 0; i < states_.size(); ++i)
      states_[i] = projection_[i][top_state];
  }

  /// The non-ghost top state with the most support among live servers,
  /// the smallest on ties; the ghost on a one-state top.
  [[nodiscard]] State most_confusable_state() const {
    std::vector<std::uint32_t> support(top_.size(), 0);
    for (State t = 0; t < top_.size(); ++t)
      for (std::size_t i = 0; i < states_.size(); ++i)
        if (states_[i] && *states_[i] == projection_[i][t]) ++support[t];
    std::optional<State> best;
    for (State t = 0; t < top_.size(); ++t)
      if (t != ghost_ && (!best || support[t] > support[*best])) best = t;
    return best.value_or(ghost_);
  }

  [[nodiscard]] State ghost() const { return ghost_; }
  [[nodiscard]] const std::optional<State>& state(std::size_t i) const {
    return states_[i];
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<EventId>& journal() const {
    return journal_;
  }

 private:
  Dfsm top_;
  std::vector<Dfsm> machines_;
  std::vector<std::vector<State>> projection_;
  std::vector<std::optional<State>> states_;
  State ghost_;
  std::uint64_t dropped_ = 0;
  std::vector<EventId> journal_;
};

void expect_same(const FusedSystem& system, const Oracle& oracle) {
  ASSERT_EQ(system.ghost_top_state(), oracle.ghost());
  for (std::size_t i = 0; i < system.servers().size(); ++i) {
    const Server& server = system.servers()[i];
    ASSERT_EQ(server.crashed(), !oracle.state(i).has_value())
        << "server " << i;
    if (!server.crashed()) {
      ASSERT_EQ(server.state(), *oracle.state(i));
    }
  }
  ASSERT_EQ(system.dropped_events(), oracle.dropped());
  ASSERT_TRUE(std::ranges::equal(system.event_log().view(),
                                 oracle.journal()));
}

void expect_same_result(const RecoveryResult& got,
                        const RecoveryResult& want) {
  EXPECT_EQ(got.top_state, want.top_state);
  EXPECT_EQ(got.unique, want.unique);
  EXPECT_EQ(got.max_count, want.max_count);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.contradicting_machines, want.contradicting_machines);
  EXPECT_EQ(got.corrected_blocks, want.corrected_blocks);
}

/// Drives `system` and the oracle through `length` seeded events. About one
/// event in five is foreign to every machine: `foreign` holds ids interned
/// before construction, and ids interned into `alphabet` mid-stream (past
/// the end of the routing table) and one never interned join them. Crashes,
/// corruptions under every strategy and recover() calls are interleaved;
/// halfway through the stream continues on a copy of the system.
void run_differential(FusedSystem& original,
                      const std::shared_ptr<Alphabet>& alphabet,
                      std::vector<EventId> foreign, std::uint64_t seed,
                      std::size_t length) {
  ASSERT_TRUE(original.event_log().empty());
  Oracle oracle(original);
  const std::span<const EventId> events = original.top().events();
  const std::size_t servers = original.servers().size();
  Xoshiro256 rng(seed);
  Xoshiro256 corrupt_rng(seed * 7 + 3);
  std::optional<FusedSystem> copy;
  FusedSystem* system = &original;
  foreign.push_back(std::numeric_limits<EventId>::max());
  std::size_t foreign_events = 0, corruptions = 0, recoveries = 0;

  for (std::size_t step = 0; step < length; ++step) {
    SCOPED_TRACE(std::string("step ").append(std::to_string(step)));
    if (step == length / 3)
      foreign.push_back(
          alphabet->intern(std::string("late-").append(std::to_string(seed))));
    if (step == length / 2) {
      copy.emplace(original);
      system = &*copy;
    }

    const bool is_foreign = rng.chance(0.2);
    foreign_events += is_foreign;
    const EventId event = is_foreign ? foreign[rng.below(foreign.size())]
                                     : events[rng.below(events.size())];
    system->apply(event);
    oracle.apply(event);
    ASSERT_NO_FATAL_FAILURE(expect_same(*system, oracle));

    const std::uint64_t roll = rng.below(100);
    const std::size_t victim = rng.below(servers);
    if (roll < 4) {
      system->crash(victim);
      oracle.crash(victim);
    } else if (roll < 9 && !system->servers()[victim].crashed()) {
      const State target = system->most_confusable_state();
      ASSERT_EQ(target, oracle.most_confusable_state());
      const auto strategy = static_cast<ByzantineStrategy>(rng.below(3));
      system->corrupt(victim, strategy, corrupt_rng, target);
      oracle.adopt(victim, system->servers()[victim].state());
      ++corruptions;
    } else if (roll < 12) {
      ++recoveries;
      const RecoveryResult expected = ffsm::recover(
          system->top().size(), system->partitions(), system->reports());
      const RecoveryResult got = system->recover();
      expect_same_result(got, expected);
      if (got.unique) oracle.restore_all(got.top_state);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(*system, oracle));
  }
  // The stream reached every path it is meant to compare.
  EXPECT_GT(foreign_events, 0u);
  EXPECT_GT(corruptions, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(oracle.dropped(), 0u);
}

/// Runs the differential stream on a journaling system of `make`'s
/// machines. "idle" is interned before them: an id inside the routing
/// table's range that no machine subscribes to.
template <typename MakeMachines>
void check_system(MakeMachines make, std::uint32_t f, std::uint64_t seed,
                  std::size_t length) {
  auto alphabet = Alphabet::create();
  const std::vector<EventId> foreign{alphabet->intern("idle")};
  FusedSystemOptions options;
  options.f = f;
  options.keep_event_log = true;
  FusedSystem system(make(alphabet), options);
  ASSERT_NO_FATAL_FAILURE(
      run_differential(system, alphabet, foreign, seed, length));
}

TEST(EventPath, RecoverSystemMatchesTheStepEverywhereOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
    check_system(testing::recover_mix_machines, 2, seed, 2000);
  }
}

using CatalogParam = std::tuple<std::uint32_t,   // catalog system kind
                                std::uint32_t>;  // f

class CatalogEventPath : public ::testing::TestWithParam<CatalogParam> {};

TEST_P(CatalogEventPath, MatchesTheStepEverywhereOracle) {
  const auto [kind, f] = GetParam();
  const auto make = [kind](const std::shared_ptr<Alphabet>& alphabet) {
    return testing::catalog_system(kind, alphabet);
  };
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
    check_system(make, f, seed * 10 + kind, 1000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CatalogEventPath,
    ::testing::Combine(::testing::Range(0u, testing::kCatalogSystemKinds),
                       ::testing::Values(1u, 2u)));

TEST(EventPath, MostConfusableStateOfAOneStateTopIsTheGhost) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "one", 1, "tick"));
  FusedSystemOptions options;
  options.f = 1;
  FusedSystem system(std::move(machines), options);
  ASSERT_EQ(system.top().size(), 1u);
  system.apply(*alphabet->find("tick"));
  EXPECT_EQ(system.most_confusable_state(), system.ghost_top_state());
  system.crash(0);
  EXPECT_EQ(system.most_confusable_state(), system.ghost_top_state());
}

}  // namespace
}  // namespace ffsm
