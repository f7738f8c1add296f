// Sensor network example (the paper's introduction and conclusion):
//
//   "consider a sensor network with 100 sensors, each running a mod-3
//    counter... To tolerate a crash fault, replication demands 100 new
//    sensors. Fusion could possibly tolerate a fault by using only one new
//    backup sensor with exactly three states."
//
// Part 1 materialises small networks (k <= 6 sensors) and lets Algorithm 2
// discover the 3-state backup automatically, comparing state space against
// replication.
//
// Part 2 scales to the full 100-sensor claim. The cross product (3^100
// states) cannot be materialised — the paper never builds it either — so we
// use the closed-form fusion the lattice contains: the mod-3 counter of ALL
// sensor events (the generalisation of Fig. 1's F1). One hundred sensors are
// simulated, any one is crashed, and its state is recovered from the 99
// survivors plus the single 3-state backup.
//
// Usage: sensor_network [sensor_count] [faulty_sensor]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "replication/replication.hpp"
#include "sim/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

void small_networks_via_algorithm2() {
  std::printf("== Part 1: Algorithm 2 on materialised networks ==\n");
  TextTable table({"sensors", "|top|", "backup sizes", "|Replication|",
                   "|Fusion|", "savings"});
  for (std::uint32_t k = 2; k <= 6; ++k) {
    auto alphabet = Alphabet::create();
    std::vector<Dfsm> sensors;
    for (std::uint32_t i = 0; i < k; ++i)
      sensors.push_back(make_mod_counter(
          alphabet, std::string("sensor").append(std::to_string(i)), 3,
          std::string("evt").append(std::to_string(i))));
    const CrossProduct cp = reachable_cross_product(sensors);
    GenerateOptions options;
    options.f = 1;
    const GeneratedBackups backups = generate_backup_machines(cp, options);

    std::string sizes;
    for (const Dfsm& b : backups.machines) {
      if (!sizes.empty()) sizes += " ";
      sizes += std::to_string(b.size());
    }
    const std::uint64_t repl =
        replication_state_space(sensors, 1, FaultModel::kCrash);
    const std::uint64_t fus = fusion_state_space(backups.machines);
    table.add_row({std::to_string(k), std::to_string(cp.top.size()), sizes,
                   with_thousands(repl), with_thousands(fus),
                   std::to_string(static_cast<double>(repl) /
                                  static_cast<double>(fus))});
  }
  std::printf("%s\n", table.to_string().c_str());
}

int full_scale_claim(std::uint32_t sensor_count, std::uint32_t faulty) {
  std::printf("== Part 2: the %u-sensor claim ==\n", sensor_count);

  // Build the sensors plus the closed-form fusion: a mod-3 counter
  // subscribed to every sensor event (F1 generalised). The cross product is
  // never materialised.
  auto alphabet = Alphabet::create();
  std::vector<Server> servers;
  std::vector<EventId> support;
  std::vector<std::pair<std::string_view, std::uint32_t>> all_events;
  std::vector<std::string> event_names;
  event_names.reserve(sensor_count);
  for (std::uint32_t i = 0; i < sensor_count; ++i)
    event_names.push_back(std::string("evt").append(std::to_string(i)));
  for (std::uint32_t i = 0; i < sensor_count; ++i) {
    servers.emplace_back(make_mod_counter(
        alphabet, std::string("sensor").append(std::to_string(i)), 3,
        event_names[i]));
    support.push_back(*alphabet->find(event_names[i]));
    all_events.emplace_back(event_names[i], 1u);
  }
  Server backup{make_weighted_mod_counter(alphabet, "fusion-backup", 3,
                                          all_events)};
  std::printf("backup machine: %s with %u states (replication would add %u "
              "sensors)\n",
              backup.machine().name().c_str(), backup.machine().size(),
              sensor_count);

  // Drive everything with one random stream.
  Xoshiro256 rng(7);
  for (int step = 0; step < 100000; ++step) {
    const EventId e = support[rng.below(support.size())];
    for (Server& s : servers) s.apply(e);
    backup.apply(e);
  }

  // Crash one sensor and recover it: its counter value is
  // (backup - sum of survivors) mod 3 — exactly what Algorithm 3 computes
  // once the blocks are translated into residues.
  const State truth = servers[faulty].state();
  servers[faulty].crash();
  std::uint32_t survivor_sum = 0;
  for (std::uint32_t i = 0; i < sensor_count; ++i)
    if (i != faulty) survivor_sum = (survivor_sum + servers[i].state()) % 3;
  const State recovered =
      (backup.state() + 3 - survivor_sum % 3) % 3;
  servers[faulty].restore(recovered);

  std::printf("sensor %u crashed; true state %u, recovered %u -> %s\n",
              faulty, truth, recovered,
              truth == recovered ? "OK" : "MISMATCH");
  std::printf("backup state space: replication 3^%u vs fusion 3\n",
              sensor_count);
  return truth == recovered ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto sensors = argc > 1
                           ? static_cast<std::uint32_t>(std::atoi(argv[1]))
                           : 100u;
  const auto faulty = argc > 2
                          ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                          : sensors / 2;
  small_networks_via_algorithm2();
  return full_scale_claim(sensors, faulty % sensors);
}
