// The workloads and the request/top material they share.
//
//   serve-warm — open loop, seeded Poisson arrivals against subprocess
//                shards whose caches were warmed in set-up.
//   recover    — closed loop over a FusedSystem: events, injected faults
//                within Theorem 6's bound, Algorithm 3 recovery, verify.
//
// Each workload fills the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) into the Report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "harness.hpp"
#include "sim/messages.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// One top machine with the originals it was built from.
struct Top {
  std::string key;
  std::vector<ffsm::Dfsm> machines;
  ffsm::CrossProduct product;
  std::vector<ffsm::Partition> originals;
};

/// Reachable cross product of `machines` plus their partitions.
[[nodiscard]] Top make_top(std::string key, std::vector<ffsm::Dfsm> machines);

/// Two catalog mod-k counters: a k*k-state top.
[[nodiscard]] Top counter_pair_top(std::uint32_t k);

/// One kind of generation request and its serial-oracle answer.
struct RequestKind {
  std::size_t top = 0;
  std::uint32_t f = 1;
  ffsm::DescentPolicy policy = ffsm::DescentPolicy::kFewestBlocks;
  ffsm::FusionResult oracle;

  [[nodiscard]] ffsm::FusionRequest request(const Top& t) const {
    return {t.originals, f, policy};
  }
};

/// Every (top, f in 1..3, both descent policies) combination.
[[nodiscard]] std::vector<RequestKind> all_kinds(std::size_t tops);

/// Fills every kind's oracle: serial generate_fusion (parallel=false).
void compute_oracles(const std::vector<Top>& tops,
                     std::vector<RequestKind>& kinds);

/// Seeded request order that visits every kind once per cycle, so each run
/// carries the same mix whatever its seed.
class KindOrder {
 public:
  KindOrder(std::size_t kinds, std::uint64_t seed);
  [[nodiscard]] std::size_t next();

 private:
  std::vector<std::size_t> cycle_;
  std::size_t position_ = 0;
  ffsm::Xoshiro256 rng_;
};

/// Wire frames of a workload's own requests and responses.
struct WireSample {
  std::vector<ffsm::Frame> requests;
  std::vector<ffsm::Frame> responses;
};
[[nodiscard]] WireSample wire_sample(const std::vector<Top>& tops,
                                     const std::vector<RequestKind>& kinds);

/// Per-layer metrics every workload measures on its own inputs by timing
/// the layers' public functions: fsm, partition (lower cover, closure,
/// cache ops), fault, util, sim.messages, net. The calls are recorded as
/// spans in `tracer` (its layer totals are not the workload's).
void measure_layers(const std::vector<Top>& tops, ffsm::ThreadPool& pool,
                    const WireSample& wire, Tracer& tracer, Report& report);

/// Worker threads per subprocess shard / pool sizes derive from nproc().
[[nodiscard]] std::size_t pool_threads();

void run_serve_warm(const Args& args, Report& report);
void run_recover(const Args& args, Report& report);

/// serve-warm at increasing offered rates, printing where it saturates —
/// how the benchmark's fixed arrival rate was chosen.
void probe_serve_capacity(const Args& args);

}  // namespace perfbench
