#include "replication/replication.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fsm/machine_catalog.hpp"

namespace ffsm {
namespace {

std::vector<Dfsm> two_machines(const std::shared_ptr<Alphabet>& al) {
  std::vector<Dfsm> machines;
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  return machines;
}

TEST(ReplicationPlan, CrashNeedsFCopiesEach) {
  auto al = Alphabet::create();
  const auto machines = two_machines(al);
  const ReplicationPlan plan =
      make_replication_plan(machines, 2, FaultModel::kCrash);
  EXPECT_EQ(plan.copies_per_machine, 2u);
  EXPECT_EQ(plan.backups.size(), 4u);  // n * f
}

TEST(ReplicationPlan, ByzantineNeedsTwoFCopiesEach) {
  auto al = Alphabet::create();
  const auto machines = two_machines(al);
  const ReplicationPlan plan =
      make_replication_plan(machines, 2, FaultModel::kByzantine);
  EXPECT_EQ(plan.copies_per_machine, 4u);
  EXPECT_EQ(plan.backups.size(), 8u);  // 2 * n * f
}

TEST(ReplicationPlan, BackupsAreExactCopies) {
  auto al = Alphabet::create();
  const auto machines = two_machines(al);
  const ReplicationPlan plan =
      make_replication_plan(machines, 1, FaultModel::kCrash);
  ASSERT_EQ(plan.backups.size(), 2u);
  for (std::size_t k = 0; k < plan.backups.size(); ++k)
    EXPECT_TRUE(
        plan.backups[k].same_structure(machines[plan.source[k]]));
}

TEST(ReplicationPlan, SourceMapsBackupsToOriginals) {
  auto al = Alphabet::create();
  const auto machines = two_machines(al);
  const ReplicationPlan plan =
      make_replication_plan(machines, 3, FaultModel::kCrash);
  std::vector<std::size_t> per_original(machines.size(), 0);
  for (const auto s : plan.source) ++per_original[s];
  for (const auto count : per_original) EXPECT_EQ(count, 3u);
}

TEST(StateSpace, PaperFormulaCrash) {
  // |Replication| = (prod |Mi|)^f: the paper's row 3 uses five 3-state
  // machines with f=2 -> 243^2 = 59049.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "c1", 3, "1"));
  machines.push_back(make_mod_counter(al, "c0", 3, "0"));
  machines.push_back(make_divisibility_checker(al, "div", 3));
  machines.push_back(make_paper_machine_a(al));
  machines.push_back(make_paper_machine_b(al));
  EXPECT_EQ(replication_state_space(machines, 2, FaultModel::kCrash),
            59049u);
}

TEST(StateSpace, PaperFormulaRowTwo) {
  // Row 2: product 128, f=3 -> 128^3 = 2097152.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_parity_checker(al, "ep", "1"));
  machines.push_back(make_parity_checker(al, "op", "0"));
  machines.push_back(make_toggle_switch(al, "t"));
  machines.push_back(make_pattern_detector(al, "p", "101"));
  machines.push_back(make_mesi(al));
  EXPECT_EQ(replication_state_space(machines, 3, FaultModel::kCrash),
            2097152u);
}

TEST(StateSpace, ByzantineSquaresTheCrashSpace) {
  auto al = Alphabet::create();
  const auto machines = two_machines(al);  // product = 9
  EXPECT_EQ(replication_state_space(machines, 1, FaultModel::kCrash), 9u);
  EXPECT_EQ(replication_state_space(machines, 1, FaultModel::kByzantine),
            81u);
}

TEST(StateSpace, FusionIsProductOfBackupSizes) {
  auto al = Alphabet::create();
  std::vector<Dfsm> backups;
  backups.push_back(make_mod_counter(al, "f1", 3, "0"));
  backups.push_back(make_mod_counter(al, "f2", 4, "1"));
  EXPECT_EQ(fusion_state_space(backups), 12u);
  EXPECT_EQ(fusion_state_space({}), 1u);
}

TEST(StateSpace, SaturatesInsteadOfOverflowing) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  for (int i = 0; i < 6; ++i)
    machines.push_back(make_shift_register(
        al, std::string("sr").append(std::to_string(i)), 16));
  // (2^16)^6 = 2^96 overflows 64 bits; expect saturation, not wraparound.
  EXPECT_EQ(replication_state_space(machines, 1, FaultModel::kCrash),
            UINT64_MAX);
}

TEST(ReplicaRecovery, CrashTakesAnyLiveCopy) {
  const std::vector<std::optional<State>> states{std::nullopt, State{2},
                                                 std::nullopt};
  EXPECT_EQ(replica_recover_crash(states), State{2});
}

TEST(ReplicaRecovery, CrashFailsWhenAllDead) {
  const std::vector<std::optional<State>> states{std::nullopt, std::nullopt};
  EXPECT_FALSE(replica_recover_crash(states).has_value());
}

TEST(ReplicaRecovery, ByzantineMajorityWins) {
  const std::vector<State> states{4, 4, 7};
  EXPECT_EQ(replica_recover_byzantine(states), State{4});
}

TEST(ReplicaRecovery, ByzantineNoStrictMajorityFails) {
  const std::vector<State> states{4, 7};
  EXPECT_FALSE(replica_recover_byzantine(states).has_value());
}

TEST(ReplicaRecovery, ByzantineToleratesFLiarsWithTwoFPlusOneCopies) {
  // 2f+1 = 5 reports, f = 2 liars: majority of 3 still wins.
  const std::vector<State> states{1, 1, 1, 0, 2};
  EXPECT_EQ(replica_recover_byzantine(states), State{1});
}

TEST(Replication, FusionBeatsReplicationOnEveryTableRow) {
  // The headline comparison of the paper's evaluation: fusion state space
  // is never larger than replication state space (and usually far smaller).
  // This test only checks the replication side accounting; the fusion side
  // is exercised in integration_test.cpp with generated machines.
  for (const auto& row : make_results_table_rows()) {
    const std::uint64_t repl =
        replication_state_space(row.machines, row.faults, FaultModel::kCrash);
    std::uint64_t product = 1;
    for (const Dfsm& m : row.machines) product *= m.size();
    EXPECT_GE(repl, product) << row.label;  // at least one copy each
  }
}

}  // namespace
}  // namespace ffsm
