// Regenerates Fig. 1 (experiment E1): the mod-3 counter pair, the 9-state
// reachable cross product, the hand fusions F1/F2, and what Algorithm 2
// discovers automatically. Confirms the tolerance claims of the
// introduction: {A,B,F1} handles one crash fault; {A,B,F1,F2} handles one
// Byzantine fault.
#include "bench_support.hpp"

#include <array>

#include "fault/fault_graph.hpp"
#include "fault/tolerance.hpp"
#include "recovery/set_representation.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

struct Fig1System {
  std::shared_ptr<Alphabet> alphabet = Alphabet::create();
  Dfsm a = make_mod_counter(alphabet, "A", 3, "0");
  Dfsm b = make_mod_counter(alphabet, "B", 3, "1");
  Dfsm f1 = make_weighted_mod_counter(
      alphabet, "F1", 3,
      std::array<std::pair<std::string_view, std::uint32_t>, 2>{
          {{"0", 1u}, {"1", 1u}}});
  Dfsm f2 = make_weighted_mod_counter(
      alphabet, "F2", 3,
      std::array<std::pair<std::string_view, std::uint32_t>, 2>{
          {{"0", 1u}, {"1", 2u}}});
};

void report() {
  std::printf("== Fig. 1: mod-3 counters ==\n");
  Fig1System sys;
  const std::vector<Dfsm> originals{sys.a, sys.b};
  const CrossProduct cp = reachable_cross_product(originals);

  TextTable table({"machine set", "dmin", "crash faults", "byz faults"});
  const auto row = [&](const char* label,
                       const std::vector<const Dfsm*>& machines) {
    std::vector<Partition> parts;
    for (const Dfsm* m : machines)
      parts.push_back(set_representation(cp.top, *m).to_partition());
    const ToleranceReport t =
        analyze_tolerance(FaultGraph::build(cp.top.size(), parts));
    table.add_row({label, std::to_string(t.dmin),
                   std::to_string(t.crash_faults),
                   std::to_string(t.byzantine_faults)});
  };
  row("{A,B}", {&sys.a, &sys.b});
  row("{A,B,F1}", {&sys.a, &sys.b, &sys.f1});
  row("{A,B,F2}", {&sys.a, &sys.b, &sys.f2});
  row("{A,B,F1,F2}", {&sys.a, &sys.b, &sys.f1, &sys.f2});
  std::printf("%s", table.to_string().c_str());
  std::printf("R({A,B}) has %u states; F1/F2 have 3 each.\n", cp.top.size());

  GenerateOptions options;
  options.f = 1;
  const GeneratedBackups generated = generate_backup_machines(cp, options);
  std::printf("Algorithm 2 (f=1) finds: %s states\n\n",
              bench::size_list(generated.machines).c_str());
}

void counters_cross_product(benchmark::State& state) {
  Fig1System sys;
  const std::vector<Dfsm> originals{sys.a, sys.b};
  for (auto _ : state)
    benchmark::DoNotOptimize(reachable_cross_product(originals));
}
BENCHMARK(counters_cross_product)->Unit(benchmark::kMicrosecond);

void counters_generate(benchmark::State& state) {
  Fig1System sys;
  const std::vector<Dfsm> originals{sys.a, sys.b};
  const CrossProduct cp = reachable_cross_product(originals);
  GenerateOptions options;
  options.f = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_backup_machines(cp, options));
}
BENCHMARK(counters_generate)->DenseRange(1, 3)->Unit(benchmark::kMicrosecond);

void counters_mod_k_sweep(benchmark::State& state) {
  // Generation cost versus counter modulus (top = k^2 states).
  const auto k = static_cast<std::uint32_t>(state.range(0));
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        generate_fusion(cp.top, bench::original_partitions(cp), options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(counters_mod_k_sweep)
    ->DenseRange(3, 12, 3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

FFSM_BENCH_MAIN(report)
