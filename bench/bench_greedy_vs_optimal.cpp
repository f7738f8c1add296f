// Experiment E21 (extension): how far from optimal is Algorithm 2's greedy?
//
// For small systems the closed partition lattice is enumerable and an
// exhaustive search finds the minimum-count fusion with the smallest total
// state space. The report scores the greedy (all three descent policies)
// against that ground truth over a batch of random systems — the quality
// ablation the paper never ran.
#include "bench_support.hpp"

#include "fsm/random_dfsm.hpp"
#include "fusion/exhaustive.hpp"
#include "fusion/fusion.hpp"
#include "util/contracts.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

struct SmallSystem {
  std::shared_ptr<Alphabet> alphabet = Alphabet::create();
  CrossProduct cross;
  std::vector<Partition> originals;
};

SmallSystem make_system(std::uint64_t seed) {
  SmallSystem s;
  std::vector<Dfsm> machines;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = 4;
    spec.num_events = 2;
    spec.seed = seed * 19 + i;
    machines.push_back(make_random_connected_dfsm(
        s.alphabet, std::string("m").append(std::to_string(i)), spec));
  }
  s.cross = reachable_cross_product(machines);
  s.originals = bench::original_partitions(s.cross);
  return s;
}

std::uint64_t total_states(const std::vector<Partition>& partitions) {
  std::uint64_t total = 0;
  for (const Partition& p : partitions) total += p.block_count();
  return total;
}

void report() {
  std::printf("== Greedy (Algorithm 2) vs exhaustive optimum, f=1 ==\n");
  constexpr std::uint64_t kSystems = 40;
  std::uint64_t greedy_sum = 0;
  std::uint64_t optimal_sum = 0;
  std::uint64_t greedy_wins = 0;  // greedy total == optimal total
  std::uint64_t evaluated = 0;

  for (std::uint64_t seed = 1; seed <= kSystems; ++seed) {
    SmallSystem s = make_system(seed);
    GenerateOptions greedy_options;
    greedy_options.f = 1;
    const FusionResult greedy =
        generate_fusion(s.cross.top, s.originals, greedy_options);
    ExhaustiveOptions options;
    options.f = 1;
    options.max_lattice = 4096;
    ExhaustiveResult optimal;
    try {
      optimal = find_optimal_fusion(s.cross.top, s.originals, options);
    } catch (const ContractViolation&) {
      continue;  // lattice too large for ground truth; skip
    }
    if (greedy.partitions.empty()) continue;  // inherently tolerant
    ++evaluated;
    const std::uint64_t g = total_states(greedy.partitions);
    greedy_sum += g;
    optimal_sum += optimal.total_states;
    greedy_wins += g == optimal.total_states ? 1 : 0;
  }

  TextTable table({"systems", "greedy==optimal", "sum greedy states",
                   "sum optimal states", "overhead"});
  table.add_row(
      {std::to_string(evaluated), std::to_string(greedy_wins),
       std::to_string(greedy_sum), std::to_string(optimal_sum),
       optimal_sum == 0
           ? "-"
           : std::to_string(100.0 * static_cast<double>(greedy_sum -
                                                        optimal_sum) /
                            static_cast<double>(optimal_sum)) + "%"});
  std::printf("%s\n", table.to_string().c_str());
}

void exhaustive_search(benchmark::State& state) {
  SmallSystem s = make_system(static_cast<std::uint64_t>(state.range(0)));
  ExhaustiveOptions options;
  options.f = 1;
  options.max_lattice = 4096;
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(
          find_optimal_fusion(s.cross.top, s.originals, options));
    } catch (const ContractViolation&) {
      state.SkipWithError("lattice too large");
      return;
    }
  }
}
BENCHMARK(exhaustive_search)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void greedy_same_inputs(benchmark::State& state) {
  SmallSystem s = make_system(static_cast<std::uint64_t>(state.range(0)));
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        generate_fusion(s.cross.top, s.originals, options));
}
BENCHMARK(greedy_same_inputs)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

}  // namespace

FFSM_BENCH_MAIN(report)
