// Reference implementations written straight from the paper's definitions,
// for checking the engine in src/ against code that shares none of its
// shortcuts: no sink search, no memo, no delta updates.
//
// oracle_lower_cover is Definition 2: close p with each pair of its blocks
// united (one merge_closure per pair), drop repeats keeping first
// occurrences, and keep the maximal results. lower_cover must return the
// same elements in the same order, because DescentPolicy::kFirstFound
// follows the first one.
//
// oracle_generate_fusion is Algorithm 2 (section 5.1) with nothing carried
// between steps: every outer iteration rebuilds the fault graph with
// FaultGraph::build, and every descent step computes its lower cover with
// oracle_lower_cover.
//
// Header-only, shared by the test suites and the ablation benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/dfsm.hpp"
#include "fusion/generator.hpp"
#include "partition/closure.hpp"
#include "partition/partition.hpp"

namespace ffsm::testing {

/// Maximal closed partitions strictly below the closed partition `p`, in
/// order of the first block pair (i, j), i < j, lexicographic, whose
/// closure produced them.
inline std::vector<Partition> oracle_lower_cover(const Dfsm& machine,
                                                 const Partition& p) {
  const std::uint32_t blocks = p.block_count();
  std::vector<State> rep(blocks, kInvalidState);
  for (State s = 0; s < p.size(); ++s)
    if (rep[p.block_of(s)] == kInvalidState) rep[p.block_of(s)] = s;

  std::vector<Partition> unique;
  std::unordered_set<Partition, PartitionHash> seen;
  for (std::uint32_t i = 0; i < blocks; ++i)
    for (std::uint32_t j = i + 1; j < blocks; ++j) {
      const std::pair<State, State> merge[1] = {{rep[i], rep[j]}};
      Partition q = merge_closure(machine, p, merge);
      if (seen.insert(q).second) unique.push_back(std::move(q));
    }

  std::vector<Partition> cover;
  for (const Partition& q : unique)
    if (std::none_of(unique.begin(), unique.end(), [&](const Partition& r) {
          return Partition::less(q, r);
        }))
      cover.push_back(q);
  return cover;
}

/// Algorithm 2 on `top` from `originals`, reading only options.f and
/// options.policy. Stats count the work the way generate_fusion does, for
/// a run that caches nothing: B(B-1)/2 pairs for every cover of a B-block
/// partition.
inline FusionResult oracle_generate_fusion(
    const Dfsm& top, std::span<const Partition> originals,
    const GenerateOptions& options) {
  const std::uint32_t n = top.size();
  FusionResult result;
  std::vector<Partition> machines(originals.begin(), originals.end());
  while (true) {
    const FaultGraph graph =
        FaultGraph::build(n, machines, {.pool = nullptr, .parallel = false});
    if (result.stats.machines_added == 0)
      result.stats.dmin_before = graph.dmin();
    if (graph.dmin() == FaultGraph::kInfinity || graph.dmin() > options.f) {
      result.stats.dmin_after = graph.dmin();
      return result;
    }

    // Descend from the identity while some lower-cover element still
    // separates every weakest edge.
    const auto& weakest = graph.weakest_edges();
    Partition current = Partition::identity(n);
    while (true) {
      const std::uint64_t blocks = current.block_count();
      const std::vector<Partition> cover = oracle_lower_cover(top, current);
      result.stats.candidates_examined += cover.size();
      result.stats.closures_evaluated += blocks * (blocks - 1) / 2;
      std::vector<const Partition*> viable;
      for (const Partition& c : cover)
        if (std::all_of(weakest.begin(), weakest.end(), [&](const auto& e) {
              return c.separates(e.first, e.second);
            }))
          viable.push_back(&c);
      if (viable.empty()) break;
      // Ties go to the earliest candidate under every policy.
      const auto by_blocks = [](const Partition* a, const Partition* b) {
        return a->block_count() < b->block_count();
      };
      switch (options.policy) {
        case DescentPolicy::kFirstFound:
          current = *viable.front();
          break;
        case DescentPolicy::kFewestBlocks:
          current = **std::min_element(viable.begin(), viable.end(), by_blocks);
          break;
        case DescentPolicy::kMostBlocks:
          current = **std::max_element(viable.begin(), viable.end(), by_blocks);
          break;
      }
      ++result.stats.descent_steps;
    }
    machines.push_back(current);
    result.partitions.push_back(std::move(current));
    ++result.stats.machines_added;
  }
}

}  // namespace ffsm::testing
