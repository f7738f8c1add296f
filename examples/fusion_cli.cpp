// fusion_cli — generate fault-tolerant backups for machines given as .fsm
// text files (the library's serialisation format; see src/fsm/serialize.hpp).
//
//   fusion_cli --f <faults> [--relaxed <fraction>] [--bundle] file1.fsm ...
//
// Reads each machine, computes the reachable cross product, runs Algorithm 2
// (or the relaxed generator), and prints the backup machines in .fsm format;
// --bundle prints the complete deployment bundle instead. With no files,
// reads one machine set demonstration from the built-in catalog.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fsm/serialize.hpp"
#include "util/contracts.hpp"
#include "fusion/generator.hpp"
#include "fusion/relaxed.hpp"
#include "partition/quotient.hpp"
#include "recovery/bundle.hpp"

namespace {

using namespace ffsm;

int usage() {
  std::fprintf(stderr,
               "usage: fusion_cli [--f N] [--relaxed FRACTION] [--bundle] "
               "[file.fsm ...]\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fusion_cli: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t faults = 1;
  double relaxed_fraction = 0.0;  // 0 = strict Algorithm 2
  bool emit_bundle = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--f") == 0 && i + 1 < argc) {
      faults = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--relaxed") == 0 && i + 1 < argc) {
      relaxed_fraction = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--bundle") == 0) {
      emit_bundle = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      files.emplace_back(argv[i]);
    }
  }

  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  if (files.empty()) {
    std::fprintf(stderr,
                 "fusion_cli: no input files; using the built-in Fig. 1 "
                 "counters as a demo\n");
    machines.push_back(make_mod_counter(alphabet, "A", 3, "0"));
    machines.push_back(make_mod_counter(alphabet, "B", 3, "1"));
  } else {
    for (const std::string& path : files) {
      try {
        machines.push_back(from_text(read_file(path), alphabet));
      } catch (const ContractViolation& error) {
        std::fprintf(stderr, "fusion_cli: %s: %s\n", path.c_str(),
                     error.what());
        return 2;
      }
    }
  }

  const CrossProduct cp = reachable_cross_product(machines);
  std::fprintf(stderr, "fusion_cli: %zu machine(s), top has %u states\n",
               machines.size(), cp.top.size());

  GeneratedBackups backups;
  if (relaxed_fraction > 0.0) {
    std::vector<Partition> originals;
    for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
      originals.emplace_back(cp.component_assignment(i));
    RelaxedOptions options;
    options.f = faults;
    options.coverage_fraction = relaxed_fraction;
    RelaxedResult relaxed = generate_relaxed_fusion(cp.top, originals, options);
    for (std::size_t j = 0; j < relaxed.partitions.size(); ++j)
      backups.machines.push_back(
          quotient_machine(cp.top, relaxed.partitions[j],
                           std::string("F").append(std::to_string(j + 1))));
    backups.partitions = std::move(relaxed.partitions);
  } else {
    GenerateOptions options;
    options.f = faults;
    backups = generate_backup_machines(cp, options);
  }
  std::fprintf(stderr, "fusion_cli: generated %zu backup machine(s) for f=%u\n",
               backups.machines.size(), faults);

  if (emit_bundle) {
    std::fputs(
        bundle_to_text(make_bundle(cp, machines, backups, faults)).c_str(),
        stdout);
  } else {
    for (const Dfsm& m : backups.machines)
      std::fputs(to_text(m).c_str(), stdout);
  }
  return 0;
}
