#include "fusion/generator.hpp"

#include <exception>
#include <utility>

#include "fault/weakest_pairs.hpp"
#include "partition/quotient.hpp"
#include "util/contracts.hpp"

namespace ffsm {

namespace {

/// True iff `candidate`, if viable, is the policy's pick over `best`, the
/// viable candidate picked so far. Ties keep the earlier candidate.
bool beats(const Partition& candidate, const Partition& best,
           DescentPolicy policy) {
  switch (policy) {
    case DescentPolicy::kFirstFound:
      return false;
    case DescentPolicy::kFewestBlocks:
      return candidate.block_count() < best.block_count();
    case DescentPolicy::kMostBlocks:
      return candidate.block_count() > best.block_count();
  }
  FFSM_ASSERT(false);
  return false;
}

}  // namespace

FusionResult generate_fusion(const Dfsm& top,
                             std::span<const Partition> originals,
                             const GenerateOptions& options) {
  const std::uint32_t n = top.size();
  for (const Partition& p : originals) FFSM_EXPECTS(p.size() == n);

  FusionResult result;
  WeakestPairs weakest(n, originals);
  result.stats.dmin_before = weakest.dmin();

  // The memo turns the shared prefix of all descents (every descent starts
  // at the identity partition) into lookups; a caller-provided cache extends
  // the sharing across requests (generate_fusion_batch).
  LowerCoverCache local_cache;
  LowerCoverCache* cache =
      options.cache != nullptr ? options.cache : &local_cache;

  LowerCoverOptions cover_options;
  cover_options.pool = options.pool;
  cover_options.parallel = options.parallel;
  cover_options.cache = cache;
  cover_options.obs = options.obs;

  // Outer loop: one fusion machine per iteration until dmin exceeds f.
  // dmin == kInfinity (single-state top) tolerates everything already.
  while (weakest.dmin() != WeakestPairs::kInfinity &&
         weakest.dmin() <= options.f) {
    // The weakest pairs are fixed for the whole descent (Lemma 1): the
    // candidate machine increases dmin iff it separates every one of them.
    // Descend from the top of the lattice (identity partition separates all
    // pairs, hence always covers the weakest pairs — Theorem 4's existence
    // argument).
    Partition current = Partition::identity(n);
    while (true) {
      const std::uint32_t blocks = current.block_count();
      bool from_cache = false;
      const auto cover =
          lower_cover_cached(top, current, cover_options, &from_cache);
      result.stats.candidates_examined += cover->size();
      if (from_cache)
        ++result.stats.cover_cache_hits;
      else
        result.stats.closures_evaluated +=
            static_cast<std::uint64_t>(blocks) * (blocks - 1) / 2;
      // Only a candidate that would be the policy's pick is tested.
      const Partition* next = nullptr;
      for (const Partition& c : *cover)
        if ((next == nullptr || beats(c, *next, options.policy)) &&
            weakest.separated_by(c))
          next = &c;
      if (next == nullptr) break;
      current = *next;
      ++result.stats.descent_steps;
    }

    weakest.add_machine(current);
    result.partitions.push_back(std::move(current));
    ++result.stats.machines_added;
  }

  result.stats.dmin_after = weakest.dmin();
  FFSM_ENSURES(result.stats.dmin_after == WeakestPairs::kInfinity ||
               result.stats.dmin_after > options.f);
  return result;
}

std::vector<FusionResult> generate_fusion_batch(
    const Dfsm& top, std::span<const FusionRequest> requests,
    const BatchOptions& options) {
  std::vector<FusionResult> results(requests.size());
  if (requests.empty()) return results;

  LowerCoverCache local_cache;
  LowerCoverCache* cache =
      options.cache != nullptr ? options.cache : &local_cache;

  // Exceptions must not escape on a pool worker (that terminates the
  // process — see ThreadPool's exception policy); capture per request and
  // rethrow the first on the calling thread, so parallel and serial batches
  // fail identically and FusionService::drain can re-queue.
  std::vector<std::exception_ptr> errors(requests.size());
  const auto serve = [&](std::size_t i) {
    try {
      const obs::ScopedSpan span(
          options.obs, "gen.request",
          {.top = options.obs_top, .parent = options.obs_parent});
      GenerateOptions per_request;
      per_request.f = requests[i].f;
      per_request.policy = requests[i].policy;
      // Inner loops stay parallel-capable; when this request is already
      // running on a pool worker they degrade to inline execution.
      per_request.parallel = options.parallel;
      per_request.pool = options.pool;
      per_request.cache = cache;
      per_request.obs = options.obs;
      results[i] = generate_fusion(top, requests[i].originals, per_request);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (options.parallel) {
    ParallelOptions popt;
    popt.pool = options.pool;
    popt.serial_threshold = 2;  // requests are coarse-grained
    parallel_for(0, requests.size(), serve, popt);
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) serve(i);
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return results;
}

GeneratedBackups generate_backup_machines(const CrossProduct& product,
                                          const GenerateOptions& options) {
  std::vector<Partition> originals;
  originals.reserve(product.machine_count());
  for (std::uint32_t i = 0; i < product.machine_count(); ++i)
    originals.emplace_back(product.component_assignment(i));

  FusionResult fusion = generate_fusion(product.top, originals, options);

  GeneratedBackups backups;
  backups.stats = fusion.stats;
  backups.machines.reserve(fusion.partitions.size());
  for (std::size_t i = 0; i < fusion.partitions.size(); ++i)
    backups.machines.push_back(
        quotient_machine(product.top, fusion.partitions[i],
                         std::string("F").append(std::to_string(i + 1))));
  backups.partitions = std::move(fusion.partitions);
  return backups;
}

}  // namespace ffsm
