// Shared fixtures for the test suite: the paper's canonical running example
// (Figs. 2-5) in the paper's own state numbering, plus small literal-partition
// helpers.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "partition/partition.hpp"
#include "util/contracts.hpp"

namespace ffsm::testing {

/// Partition from a literal block assignment, e.g. pt({0,1,2,0}) is the
/// paper's machine A = {t0,t3}{t1}{t2}.
inline Partition pt(std::initializer_list<std::uint32_t> assignment) {
  return Partition(std::vector<std::uint32_t>(assignment));
}

/// Two catalog mod-k counters crossed into a k*k-state top — the standard
/// "large enough that the parallel paths engage" fixture for engine tests.
inline CrossProduct counter_pair_product(std::uint32_t k = 8) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  return reachable_cross_product(machines);
}

/// The fused runtime's reference originals: MESI, TCP and the paper's
/// machines A and B over one alphabet (a 176-state top; with f = 2 it is
/// the system perfbench's recover workload runs).
inline std::vector<Dfsm> recover_mix_machines(
    const std::shared_ptr<Alphabet>& alphabet) {
  std::vector<Dfsm> machines;
  machines.push_back(make_mesi(alphabet));
  machines.push_back(make_tcp(alphabet));
  machines.push_back(make_paper_machine_a(alphabet));
  machines.push_back(make_paper_machine_b(alphabet));
  return machines;
}

/// Number of catalog_system() kinds.
inline constexpr std::uint32_t kCatalogSystemKinds = 5;

/// The end-to-end sweeps' catalog systems, kind 0..kCatalogSystemKinds-1.
inline std::vector<Dfsm> catalog_system(
    std::uint32_t kind, const std::shared_ptr<Alphabet>& alphabet) {
  std::vector<Dfsm> machines;
  switch (kind) {
    case 0:  // the paper's canonical pair
      machines.push_back(make_paper_machine_a(alphabet));
      machines.push_back(make_paper_machine_b(alphabet));
      break;
    case 1:  // counters + divider (row 3 style, shared alphabet)
      machines.push_back(make_mod_counter(alphabet, "c1", 3, "1"));
      machines.push_back(make_mod_counter(alphabet, "c0", 3, "0"));
      machines.push_back(make_divisibility_checker(alphabet, "div", 3));
      break;
    case 2:  // protocol mix over disjoint alphabets
      machines.push_back(make_mesi(alphabet));
      machines.push_back(make_toggle_switch(alphabet, "t"));
      break;
    case 3:  // extended catalog machines
      machines.push_back(make_moesi(alphabet));
      machines.push_back(make_sliding_window(alphabet, "win", 2));
      break;
    default:
      machines.push_back(make_traffic_light(alphabet));
      machines.push_back(make_dhcp_client(alphabet));
      break;
  }
  return machines;
}

/// The product's originals as closed partitions of its top.
inline std::vector<Partition> component_partitions(const CrossProduct& cp) {
  std::vector<Partition> out;
  out.reserve(cp.machine_count());
  for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
    out.emplace_back(cp.component_assignment(i));
  return out;
}

/// The reconstructed running example of the paper (DESIGN.md section 2).
/// All partitions use the paper's top-state numbering t0..t3, i.e. they
/// partition make_paper_top()'s states.
struct CanonicalExample {
  std::shared_ptr<Alphabet> alphabet = Alphabet::create();
  Dfsm a = make_paper_machine_a(alphabet);
  Dfsm b = make_paper_machine_b(alphabet);
  Dfsm top = make_paper_top(alphabet);

  // The ten closed partitions of Fig. 3.
  Partition p_top = Partition::identity(4);
  Partition p_a = pt({0, 1, 2, 0});        // {t0,t3}{t1}{t2}
  Partition p_b = pt({0, 1, 2, 2});        // {t0}{t1}{t2,t3}
  Partition p_m1 = pt({0, 1, 0, 2});       // {t0,t2}{t1}{t3}
  Partition p_m2 = pt({0, 1, 1, 2});       // {t0}{t1,t2}{t3}
  Partition p_m3 = pt({0, 1, 0, 0});       // {t0,t2,t3}{t1}
  Partition p_m4 = pt({0, 1, 1, 0});       // {t0,t3}{t1,t2}
  Partition p_m5 = pt({0, 1, 1, 1});       // {t0}{t1,t2,t3}
  Partition p_m6 = pt({0, 0, 0, 1});       // {t0,t1,t2}{t3}
  Partition p_bottom = Partition::single_block(4);

  std::vector<Partition> originals() const { return {p_a, p_b}; }
};

}  // namespace ffsm::testing
