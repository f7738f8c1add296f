// Larger-scale stress runs: tops in the hundreds of states, recovery with
// hundreds of machines, long simulations with repeated fault/recovery
// cycles. Bounded to a few seconds total; these catch scaling bugs
// (overflow, quadratic blowups, pool contention) that small fixtures miss.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fusion/fusion.hpp"
#include "fusion/generator.hpp"
#include "recovery/recovery.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

TEST(Stress, CounterGrid256Generation) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "A", 16, "0"));
  machines.push_back(make_mod_counter(al, "B", 16, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  ASSERT_EQ(cp.top.size(), 256u);

  std::vector<Partition> originals;
  for (std::uint32_t i = 0; i < 2; ++i)
    originals.emplace_back(cp.component_assignment(i));
  GenerateOptions options;
  options.f = 1;
  const FusionResult result = generate_fusion(cp.top, originals, options);
  EXPECT_TRUE(is_fusion(256, originals, result.partitions, 1));
  ASSERT_EQ(result.partitions.size(), 1u);
  // The grid's diagonal congruence has 16 blocks — far below 256.
  EXPECT_LE(result.partitions[0].block_count(), 16u);
}

TEST(Stress, RecoveryWithManyMachinesAndStates) {
  // 4096-state top, 200 random machines, one crash.
  constexpr std::uint32_t kN = 4096;
  Xoshiro256 rng(8);
  std::vector<Partition> machines;
  const State truth = static_cast<State>(rng.below(kN));
  for (int k = 0; k < 200; ++k) {
    std::vector<std::uint32_t> assignment(kN);
    const std::uint64_t blocks = 2 + rng.below(64);
    for (auto& a : assignment)
      a = static_cast<std::uint32_t>(rng.below(blocks));
    machines.emplace_back(std::move(assignment));
  }
  std::vector<MachineReport> reports;
  for (std::size_t i = 0; i < machines.size(); ++i)
    reports.push_back(i == 0 ? MachineReport::crashed()
                             : MachineReport::of(
                                   machines[i].block_of(truth)));
  const RecoveryResult r = recover(kN, machines, reports);
  EXPECT_TRUE(r.unique);
  EXPECT_EQ(r.top_state, truth);
}

TEST(Stress, FaultGraphAtScale) {
  constexpr std::uint32_t kN = 2048;
  Xoshiro256 rng(9);
  std::vector<Partition> machines;
  for (int k = 0; k < 12; ++k) {
    std::vector<std::uint32_t> assignment(kN);
    for (auto& a : assignment)
      a = static_cast<std::uint32_t>(rng.below(40));
    machines.emplace_back(std::move(assignment));
  }
  const FaultGraph g = FaultGraph::build(kN, machines);
  EXPECT_EQ(g.machine_count(), 12u);
  // Every pair of distinct random 40-block assignments separates most
  // pairs; dmin should be high but never exceed machine count.
  EXPECT_LE(g.dmin(), 12u);
  const auto histogram = g.weight_histogram();
  std::size_t total = 0;
  for (const auto c : histogram) total += c;
  EXPECT_EQ(total, static_cast<std::size_t>(kN) * (kN - 1) / 2);
}

TEST(Stress, LongRunRepeatedFaultRecoveryCycles) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "c1", 5, "1"));
  machines.push_back(make_mod_counter(al, "c0", 5, "0"));
  FusedSystemOptions options;
  options.f = 2;
  FusedSystem sys(std::move(machines), options);

  std::vector<EventId> support(sys.top().events().begin(),
                               sys.top().events().end());
  Xoshiro256 rng(10);
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int step = 0; step < 100; ++step)
      sys.apply(support[rng.below(support.size())]);
    // Two crashes per cycle, rotating victims.
    sys.crash(static_cast<std::size_t>(cycle) % sys.servers().size());
    sys.crash((static_cast<std::size_t>(cycle) + 1) % sys.servers().size());
    const RecoveryResult r = sys.recover();
    ASSERT_TRUE(r.unique) << "cycle " << cycle;
    ASSERT_EQ(r.top_state, sys.ghost_top_state());
    ASSERT_TRUE(sys.verify());
  }
}

TEST(Stress, WideSystemManyMachines) {
  // Eight 2-state machines over disjoint events: top = 256 states; f=1.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  for (int i = 0; i < 8; ++i)
    machines.push_back(make_toggle_switch(
        al, std::string("t").append(std::to_string(i)),
        std::string("flip").append(std::to_string(i))));
  const CrossProduct cp = reachable_cross_product(machines);
  ASSERT_EQ(cp.top.size(), 256u);

  GenerateOptions options;
  options.f = 1;
  const GeneratedBackups backups = generate_backup_machines(cp, options);
  ASSERT_EQ(backups.machines.size(), 1u);
  // The global-parity machine (2 states) covers all Hamming-1 edges.
  EXPECT_EQ(backups.machines[0].size(), 2u);

  std::vector<Partition> all;
  for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
    all.emplace_back(cp.component_assignment(i));
  all.insert(all.end(), backups.partitions.begin(),
             backups.partitions.end());

  // Every single crash at every one of a sample of truths recovers.
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const auto truth = static_cast<State>(rng.below(256));
    const auto down = static_cast<std::size_t>(rng.below(all.size()));
    std::vector<MachineReport> reports;
    for (std::size_t i = 0; i < all.size(); ++i)
      reports.push_back(i == down
                            ? MachineReport::crashed()
                            : MachineReport::of(all[i].block_of(truth)));
    const RecoveryResult r = recover(256, all, reports);
    ASSERT_TRUE(r.unique) << trial;
    ASSERT_EQ(r.top_state, truth) << trial;
  }
}

TEST(Stress, DeepFaultToleranceF5) {
  // The conclusion's "tolerate 5 crash faults with just 5 machines" on a
  // 3-sensor network: f=5 means 5 backups and dmin 6.
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(al, "a", 3, "x"));
  machines.push_back(make_mod_counter(al, "b", 3, "y"));
  machines.push_back(make_mod_counter(al, "c", 3, "z"));
  const CrossProduct cp = reachable_cross_product(machines);

  GenerateOptions options;
  options.f = 5;
  const GeneratedBackups backups = generate_backup_machines(cp, options);
  EXPECT_EQ(backups.machines.size(), 5u);

  std::vector<Partition> all;
  for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
    all.emplace_back(cp.component_assignment(i));
  all.insert(all.end(), backups.partitions.begin(),
             backups.partitions.end());
  const FaultGraph g = FaultGraph::build(cp.top.size(), all);
  EXPECT_GT(g.dmin(), 5u);

  // 5 crashes: kill all three originals plus two backups; recovery still
  // exact for every truth.
  for (State truth = 0; truth < cp.top.size(); ++truth) {
    std::vector<MachineReport> reports;
    for (std::size_t i = 0; i < all.size(); ++i)
      reports.push_back(i < 5 ? MachineReport::crashed()
                              : MachineReport::of(all[i].block_of(truth)));
    const RecoveryResult r = recover(cp.top.size(), all, reports);
    ASSERT_TRUE(r.unique) << "truth " << truth;
    ASSERT_EQ(r.top_state, truth);
  }
}

}  // namespace
}  // namespace ffsm
