// Experiment E13: Algorithm 2's cost and its complexity shape.
//
// The paper proves O(N^3 * |Sigma| * f) for a top with N states and reports
// a 13.2-minute worst case on 2009 hardware for its table; here we sweep N
// (via random machine pairs and counter grids), |Sigma| and f and report
// wall-clock plus the generator's own work counters so the scaling curve is
// visible directly in the benchmark output.
#include "bench_support.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "fsm/random_dfsm.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ffsm;

std::string fmt2(double value, const char* suffix = "") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  return buf;
}

CrossProduct random_pair_product(std::uint32_t states_each,
                                 std::uint32_t events, std::uint64_t seed) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = states_each;
    spec.num_events = events;
    spec.seed = seed + i;
    machines.push_back(make_random_connected_dfsm(
        alphabet, std::string("m").append(std::to_string(i)), spec));
  }
  return reachable_cross_product(machines);
}

/// The first `count` of MESI, TCP, the paper's machines A and B, the DHCP
/// client and the traffic light, crossed: 4 give recover's 176-state top,
/// 5 give 1,056 states and 6 give 3,168.
CrossProduct catalog_top(std::size_t count) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mesi(alphabet));
  machines.push_back(make_tcp(alphabet));
  machines.push_back(make_paper_machine_a(alphabet));
  machines.push_back(make_paper_machine_b(alphabet));
  machines.push_back(make_dhcp_client(alphabet));
  machines.push_back(make_traffic_light(alphabet));
  machines.resize(count);
  return reachable_cross_product(machines);
}

/// Least-squares slope of log(ms) against log(states).
double log_log_slope(const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [states, ms] : points) {
    const double x = std::log(states);
    const double y = std::log(ms);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const auto n = static_cast<double>(points.size());
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/// Peak resident set, in MB, of a child process forked to run `work` once:
/// the row's own peak rather than the bench's running maximum. The child
/// starts with this process's resident pages, so small rows read about
/// the bench's own footprint.
template <typename Work>
double child_peak_rss_mb(Work&& work) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    work();
    _exit(0);
  }
  int status = 0;
  rusage usage{};
  bench::require(pid > 0 && wait4(pid, &status, 0, &usage) == pid &&
                     WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "peak-RSS child ran to completion");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

/// Cold generate_fusion at f=2 (private cache, so every cover is computed)
/// on three top families, at 1 and 4 threads: how the identity's lower
/// cover, which dominates cold generation, grows with the top, and the
/// peak memory of one run. The cover's sink search is serial; the pool
/// runs the maximality filter. A report, not a gate: only bit-identity
/// across thread counts is checked.
void report_cold_scaling(bench::JsonReporter& json) {
  std::printf("== Cold Algorithm 2 scaling (f=2, private cache) ==\n");
  struct Family {
    std::string name;
    std::vector<CrossProduct> tops;
  };
  std::vector<Family> families(3);
  families[0].name = "catalog";
  for (const std::size_t count : {4u, 5u, 6u})
    families[0].tops.push_back(catalog_top(count));
  families[1].name = "counters";
  for (const std::uint32_t k : {16u, 32u, 64u, 90u})
    families[1].tops.push_back(bench::counter_pair_product(k));
  families[2].name = "random";
  families[2].tops.push_back(random_pair_product(27, 2, 1));  // 500 states
  families[2].tops.push_back(random_pair_product(55, 2, 1));  // 1,994

  TextTable table({"family", "|top|", "threads", "ms", "pairs classified",
                   "sink components", "peak RSS MB"});
  std::vector<std::string> exponents;
  for (const Family& family : families) {
    std::vector<std::pair<double, double>> points[2];  // 1 and 4 threads
    for (const CrossProduct& cp : family.tops) {
      const auto originals = bench::original_partitions(cp);
      const std::string top = family.name + std::to_string(cp.top.size());
      // The tops over 3,000 states run once: 0.2-2.3 s a run.
      const bool largest = cp.top.size() > 3000;
      std::vector<Partition> first;
      for (const std::uint32_t threads : {1u, 4u}) {
        const double rss_mb = child_peak_rss_mb([&] {
          ThreadPool pool(threads);
          GenerateOptions options;
          options.f = 2;
          options.pool = &pool;
          (void)generate_fusion(cp.top, originals, options);
        });
        ThreadPool pool(threads);
        GenerateOptions options;
        options.f = 2;
        options.pool = &pool;
        FusionResult result;
        std::uint64_t sinks = 0;
        const std::string label =
            "cold_scaling_" + top + '_' + std::to_string(threads) + 't';
        const double ms = json.measure_ms(
            label,
            [&] {
              obs::Obs obs;
              options.obs = &obs;
              result = generate_fusion(cp.top, originals, options);
              sinks = obs.snapshot().counters["gen.sink_components"];
            },
            largest ? 1 : 3, 0);
        json.add_metric(label, "pairs_evaluated",
                        static_cast<double>(result.stats.closures_evaluated));
        json.add_metric(label, "sink_components", static_cast<double>(sinks));
        json.add_metric(label, "peak_rss_mb", rss_mb);
        table.add_row({family.name, std::to_string(cp.top.size()),
                       std::to_string(threads), fmt2(ms),
                       with_thousands(result.stats.closures_evaluated),
                       with_thousands(sinks), fmt2(rss_mb)});
        points[threads == 1 ? 0 : 1].emplace_back(cp.top.size(), ms);
        if (first.empty()) {
          first = result.partitions;
        } else {
          const std::string what = top + " bit-identical at 1 and 4 threads";
          bench::require(result.partitions == first, what.c_str());
        }
      }
    }
    for (const std::size_t t : {0u, 1u}) {
      const double slope = log_log_slope(points[t]);
      const std::string key = t == 0 ? "exponent_1t" : "exponent_4t";
      json.add_metric("cold_scaling_" + family.name, key, slope);
      exponents.push_back(family.name + " " + key + "=" + fmt2(slope));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  for (const std::string& line : exponents) std::printf("%s\n", line.c_str());
  std::printf("\n");
}

void report() {
  bench::JsonReporter json("alg2_generate");

  std::printf("== Algorithm 2 generation cost (random machine pairs) ==\n");
  TextTable table({"|top|", "|Sigma|", "f", "machines", "descents",
                   "candidates", "ms"});
  for (const std::uint32_t states : {6u, 10u, 14u, 18u}) {
    for (const std::uint32_t f : {1u, 2u}) {
      const CrossProduct cp = random_pair_product(states, 2, 77);
      GenerateOptions options;
      options.f = f;
      WallTimer timer;
      const FusionResult result =
          generate_fusion(cp.top, bench::original_partitions(cp), options);
      table.add_row({std::to_string(cp.top.size()), "2", std::to_string(f),
                     std::to_string(result.partitions.size()),
                     std::to_string(result.stats.descent_steps),
                     std::to_string(result.stats.candidates_examined),
                     std::to_string(timer.elapsed_ms())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "== Catalog machines, f=2: serial vs pooled thread sweep ==\n");
  std::printf("hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());
  // Two 16-state catalog counters, 256-state top. Each lower cover's sink
  // search is serial at every thread count; the pool runs the covers'
  // maximality filters.
  const CrossProduct cp = bench::counter_pair_product(16);
  const auto originals = bench::original_partitions(cp);

  // serial: the same engine on the calling thread, so the speedups below
  // are thread scaling alone.
  GenerateOptions serial;
  serial.f = 2;
  serial.parallel = false;
  FusionResult serial_result;
  const double serial_ms = json.measure_ms(
      "catalog_f2_serial",
      [&] { serial_result = generate_fusion(cp.top, originals, serial); },
      3, 1);

  TextTable sweep({"threads", "ms", "speedup", "pairs classified"});
  sweep.add_row({"serial", fmt2(serial_ms), "1.00x",
                 std::to_string(serial_result.stats.closures_evaluated)});
  // Clamp the sweep to the machine: sweeping 8 threads on a
  // 1- or 2-core runner measures scheduler contention, not the descent —
  // and its timings pollute the perf history with noise.
  const std::uint32_t max_threads =
      std::max(1u, std::thread::hardware_concurrency());
  bool all_identical = true;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > max_threads) continue;
    ThreadPool pool(threads);
    GenerateOptions parallel;
    parallel.f = 2;
    parallel.parallel = true;
    parallel.pool = &pool;
    FusionResult parallel_result;
    const std::string label =
        std::string("catalog_f2_parallel").append(std::to_string(threads));
    const double parallel_ms = json.measure_ms(
        label,
        [&] {
          parallel_result = generate_fusion(cp.top, originals, parallel);
        },
        3, 1);
    const bool identical =
        serial_result.partitions == parallel_result.partitions;
    const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
    const std::string speedup_key =
        std::string("speedup_").append(std::to_string(threads)) + "threads";
    json.add_metric("catalog_f2", speedup_key, speedup);
    sweep.add_row({std::to_string(threads), fmt2(parallel_ms),
                   fmt2(speedup, "x"),
                   std::to_string(parallel_result.stats.closures_evaluated)});
    bench::require(
        identical,
        ("catalog f=2 parallel partitions bit-identical to serial at " +
         std::to_string(threads) + " threads")
            .c_str());
    all_identical = all_identical && identical;
  }
  json.add_metric("catalog_f2", "bit_identical", all_identical ? 1.0 : 0.0);
  json.add_metric("catalog_f2", "machines_added",
                  static_cast<double>(serial_result.stats.machines_added));
  std::printf("top=%u\n%s\n", cp.top.size(), sweep.to_string().c_str());

  report_cold_scaling(json);
}

void generate_random_pairs(benchmark::State& state) {
  const auto states = static_cast<std::uint32_t>(state.range(0));
  const auto f = static_cast<std::uint32_t>(state.range(1));
  const CrossProduct cp = random_pair_product(states, 2, 123);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = f;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_random_pairs)
    ->ArgsProduct({{6, 10, 14, 18}, {1, 2}})
    ->Unit(benchmark::kMillisecond);

void generate_counter_grid(benchmark::State& state) {
  // Structured tops (k x k counter grids) descend far faster than the worst
  // case: block counts collapse geometrically along the lattice path.
  const auto k = static_cast<std::uint32_t>(state.range(0));
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_counter_grid)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

void generate_event_sweep(benchmark::State& state) {
  // |Sigma| dependence at fixed top size.
  const auto events = static_cast<std::uint32_t>(state.range(0));
  const CrossProduct cp = random_pair_product(10, events, 31);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_event_sweep)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

FFSM_BENCH_MAIN(report)
