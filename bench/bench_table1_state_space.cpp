// Regenerates the paper's section 6 results table (experiments E8-E12 in
// DESIGN.md): for each of the five machine rows, the number of crash faults
// f, the size of the top, the generated backup machine sizes, and the
// backup state space of replication versus fusion.
//
// Absolute |top| values differ from the paper's (their event-alphabet
// overlaps are unspecified; see EXPERIMENTS.md), but the shape — fusion
// needs a handful of machines and orders of magnitude less state space —
// reproduces on every row.
#include "bench_support.hpp"

#include "replication/replication.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

void report() {
  std::printf("== Paper section 6 results table (crash faults) ==\n");
  TextTable table({"Original Machines", "f", "|top|", "|Backup Machines|",
                   "|Replication|", "|Fusion|", "ratio"});
  for (const TableRowSpec& row : make_results_table_rows()) {
    const CrossProduct cp = reachable_cross_product(row.machines);
    GenerateOptions options;
    options.f = row.faults;
    const GeneratedBackups backups = generate_backup_machines(cp, options);
    const std::uint64_t repl = replication_state_space(
        row.machines, row.faults, FaultModel::kCrash);
    const std::uint64_t fus = fusion_state_space(backups.machines);
    table.add_row({row.label, std::to_string(row.faults),
                   std::to_string(cp.top.size()),
                   bench::size_list(backups.machines),
                   with_thousands(repl), with_thousands(fus),
                   std::to_string(repl / (fus == 0 ? 1 : fus)) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void generate_row(benchmark::State& state) {
  const auto rows = make_results_table_rows();
  const TableRowSpec& row = rows[static_cast<std::size_t>(state.range(0))];
  const CrossProduct cp = reachable_cross_product(row.machines);
  GenerateOptions options;
  options.f = row.faults;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_backup_machines(cp, options));
  }
  state.counters["top_states"] = cp.top.size();
  state.counters["f"] = row.faults;
}
BENCHMARK(generate_row)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void cross_product_row(benchmark::State& state) {
  const auto rows = make_results_table_rows();
  const TableRowSpec& row = rows[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(reachable_cross_product(row.machines));
  }
}
BENCHMARK(cross_product_row)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace

FFSM_BENCH_MAIN(report)
