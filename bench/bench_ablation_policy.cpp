// Ablation E16: the descent policy of Algorithm 2.
//
// The paper's line 6 is nondeterministic ("if exists F in C such that..."),
// leaving open WHICH viable lower-cover element to follow. The choice never
// affects correctness or the number of machines (both are forced), but it
// does affect the SIZE of the generated machines and the work done. This
// bench compares the three policies across the catalog rows and random
// systems.
#include "bench_support.hpp"

#include "fsm/random_dfsm.hpp"
#include "replication/replication.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

const char* policy_name(DescentPolicy p) {
  switch (p) {
    case DescentPolicy::kFirstFound:
      return "first-found";
    case DescentPolicy::kFewestBlocks:
      return "fewest-blocks";
    case DescentPolicy::kMostBlocks:
      return "most-blocks";
  }
  return "?";
}

void report() {
  std::printf("== Ablation: Algorithm 2 descent policy ==\n");
  TextTable table({"machine set", "policy", "backup sizes", "|Fusion|",
                   "descents", "candidates"});
  const auto rows = make_results_table_rows();
  for (const std::size_t row_idx : {2u, 3u}) {  // small + medium rows
    const TableRowSpec& row = rows[row_idx];
    const CrossProduct cp = reachable_cross_product(row.machines);
    for (const auto policy :
         {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
          DescentPolicy::kMostBlocks}) {
      GenerateOptions options;
      options.f = row.faults;
      options.policy = policy;
      const GeneratedBackups backups = generate_backup_machines(cp, options);
      table.add_row({row.label.substr(0, 30), policy_name(policy),
                     bench::size_list(backups.machines),
                     with_thousands(fusion_state_space(backups.machines)),
                     std::to_string(backups.stats.descent_steps),
                     std::to_string(backups.stats.candidates_examined)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void policy_timing(benchmark::State& state) {
  const auto rows = make_results_table_rows();
  const TableRowSpec& row = rows[2];
  const CrossProduct cp = reachable_cross_product(row.machines);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = row.faults;
  options.policy = static_cast<DescentPolicy>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.SetLabel(policy_name(options.policy));
}
BENCHMARK(policy_timing)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void policy_fusion_size_random(benchmark::State& state) {
  // Aggregate fusion state space across 20 random systems per policy — the
  // metric the policy actually moves.
  const auto policy = static_cast<DescentPolicy>(state.range(0));
  double total_states = 0;
  for (auto _ : state) {
    total_states = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      auto alphabet = Alphabet::create();
      std::vector<Dfsm> machines;
      for (std::uint32_t i = 0; i < 2; ++i) {
        RandomDfsmSpec spec;
        spec.states = 5;
        spec.num_events = 2;
        spec.seed = seed * 11 + i;
        machines.push_back(make_random_connected_dfsm(
            alphabet, std::string("m").append(std::to_string(i)), spec));
      }
      const CrossProduct cp = reachable_cross_product(machines);
      GenerateOptions options;
      options.f = 1;
      options.policy = policy;
      const FusionResult result =
          generate_fusion(cp.top, bench::original_partitions(cp), options);
      for (const Partition& p : result.partitions)
        total_states += p.block_count();
    }
    benchmark::DoNotOptimize(total_states);
  }
  state.counters["total_backup_states"] = total_states;
  state.SetLabel(policy_name(policy));
}
BENCHMARK(policy_fusion_size_random)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

FFSM_BENCH_MAIN(report)
