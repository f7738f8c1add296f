// Experiment E15: the sensor-network scaling claim (intro + conclusion of
// the paper): "to tolerate 5 crash faults among 1000 machines, replication
// will require 5000 extra machines. Using our algorithm we may achieve this
// with just 5 extra machines."
//
// The report materialises k-sensor networks (k <= 7; the cross product is
// 3^k states) and lets Algorithm 2 find the f 3-state backups; the
// benchmarks time generation and the simulator's event throughput with
// hundreds of sensor servers.
#include "bench_support.hpp"

#include "replication/replication.hpp"
#include "sim/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

std::vector<Dfsm> make_sensors(const std::shared_ptr<Alphabet>& alphabet,
                               std::uint32_t count) {
  std::vector<Dfsm> sensors;
  sensors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    sensors.push_back(make_mod_counter(
        alphabet, std::string("s").append(std::to_string(i)), 3,
        std::string("evt").append(std::to_string(i))));
  return sensors;
}

void report() {
  std::printf("== Sensor network scaling (mod-3 counters) ==\n");
  TextTable table({"sensors", "f", "|top|", "backup sizes",
                   "replication backups", "fusion backups"});
  for (const std::uint32_t k : {3u, 5u, 6u}) {
    for (const std::uint32_t f : {1u, 2u}) {
      auto alphabet = Alphabet::create();
      const auto sensors = make_sensors(alphabet, k);
      const CrossProduct cp = reachable_cross_product(sensors);
      GenerateOptions options;
      options.f = f;
      const GeneratedBackups backups = generate_backup_machines(cp, options);
      table.add_row({std::to_string(k), std::to_string(f),
                     std::to_string(cp.top.size()),
                     bench::size_list(backups.machines),
                     std::to_string(k * f),
                     std::to_string(backups.machines.size())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void generate_sensor_backups(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  auto alphabet = Alphabet::create();
  const auto sensors = make_sensors(alphabet, k);
  const CrossProduct cp = reachable_cross_product(sensors);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_sensor_backups)
    ->DenseRange(3, 6)
    ->Unit(benchmark::kMillisecond);

void sensor_event_throughput(benchmark::State& state) {
  // Simulator substrate cost: one event delivered to `count` sensor servers
  // plus the closed-form 3-state backup.
  const auto count = static_cast<std::uint32_t>(state.range(0));
  auto alphabet = Alphabet::create();
  std::vector<Server> servers;
  std::vector<EventId> support;
  for (const Dfsm& m : make_sensors(alphabet, count)) {
    support.push_back(m.events()[0]);
    servers.emplace_back(m);
  }
  std::vector<std::pair<std::string_view, std::uint32_t>> weights;
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    names.push_back(std::string("evt").append(std::to_string(i)));
  for (std::uint32_t i = 0; i < count; ++i) weights.emplace_back(names[i], 1u);
  Server backup{
      make_weighted_mod_counter(alphabet, "backup", 3, weights)};

  Xoshiro256 rng(3);
  for (auto _ : state) {
    const EventId e = support[rng.below(support.size())];
    for (Server& s : servers) s.apply(e);
    backup.apply(e);
    benchmark::DoNotOptimize(backup);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (count + 1));
}
BENCHMARK(sensor_event_throughput)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

FFSM_BENCH_MAIN(report)
