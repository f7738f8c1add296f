// A simulated server running one DFSM (original or backup).
//
// Mirrors the paper's model: servers share no state, receive every event
// from the environment, and ignore events outside their machine's event set.
// A server steps through one path, apply_local(), by the event's position in
// its machine's event list; apply(EventId) resolves that position first,
// and FusedSystem's routing table resolves it once per system, so a server
// that ignores an event is never called for it.
// Crash faults erase the execution state; Byzantine faults silently replace
// it with an arbitrary (wrong) one — the underlying DFSM itself stays intact
// in both cases (§2: the machine description survives on permanent storage,
// only the *current state* is lost or corrupted).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fsm/dfsm.hpp"
#include "fusion/generator.hpp"
#include "sim/messages.hpp"

namespace ffsm {

class Server {
 public:
  explicit Server(Dfsm machine)
      : machine_(std::move(machine)), state_(machine_.initial()) {}

  [[nodiscard]] const Dfsm& machine() const noexcept { return machine_; }

  [[nodiscard]] bool crashed() const noexcept { return !state_.has_value(); }

  /// Current execution state; contract violation when crashed.
  [[nodiscard]] State state() const;

  /// Applies an environment event: resolves its position in
  /// machine().events() and calls apply_local(). An event outside the
  /// machine's event set is ignored, crashed or not.
  void apply(EventId event);

  /// Applies the subscribed event machine().events()[local]; the one
  /// stepping path (apply() and FusedSystem's routing table both end
  /// here). A crashed server drops the event (the environment quiesces
  /// during recovery in the paper's model, but the simulator tolerates
  /// stragglers by making this a no-op and counting the drop — see
  /// dropped_events()).
  void apply_local(std::uint32_t local);

  /// Subscribed events dropped while crashed (foreign events are ignored
  /// healthy or not, so they never count). A scenario that claims the
  /// environment quiesced during recovery can assert this stayed 0.
  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_events_;
  }

  /// Crash fault: lose the execution state.
  void crash() noexcept { state_.reset(); }

  /// Byzantine fault: silently adopt an arbitrary state.
  void corrupt(State wrong_state);

  /// Recovery handshake: reinstall the correct state (after Algorithm 3).
  void restore(State correct_state);

 private:
  Dfsm machine_;
  std::optional<State> state_;
  std::uint64_t dropped_events_ = 0;
};

// ----------------------------------------------------------- FusionService
//
// The first multi-client scenario: a service that owns one top machine
// (the expensive reachable cross product) and serves fusion-generation
// requests from many clients. Clients submit (originals, f, policy)
// requests at any time from any thread; drain() serves everything queued as
// one generate_fusion_batch call, so concurrent clients share the lattice
// work through the service's persistent closure cache — both within a batch
// and across successive batches.

struct FusionServiceOptions {
  /// Fan queued requests across the pool when serving a batch.
  bool parallel = true;
  ThreadPool* pool = nullptr;
  /// Capacity of the persistent cross-batch closure cache (an LRU; must be
  /// >= 1). Capacity never changes served results — an evicted cover is
  /// recomputed on the next miss — it only caps the service's resident
  /// memory.
  std::size_t cache_capacity = LowerCoverCache::kDefaultCapacity;
  /// Optional observability context (nullptr = uninstrumented), forwarded
  /// into every served batch (gen.request spans, lower-cover/cache
  /// metrics); the service itself adds `cache.warm_replay` (time to replay
  /// a warm snapshot into the closure cache). Never affects results.
  obs::Obs* obs = nullptr;
  /// Top tag stamped on this service's spans (typically the serving key,
  /// e.g. "sensors"); empty = untagged.
  std::string obs_top;
};

class FusionService {
 public:
  /// A served request, in submission (ticket) order. The wire type
  /// (sim/messages.hpp) — in-process and cross-process serving return the
  /// same representation.
  using Response = FusionResponse;

  /// Lifetime counters — the wire type (sim/messages.hpp), so a remote
  /// worker's stats and a local service's are interchangeable.
  using Stats = ServiceStats;

  explicit FusionService(Dfsm top, FusionServiceOptions options = {});

  [[nodiscard]] const Dfsm& top() const noexcept { return top_; }

  /// Precondition check applied by submit(): every partition in
  /// `request.originals` must partition top()'s states. Public so callers
  /// that move requests in can validate *before* the move — submit takes
  /// its arguments by value, so a throw after parameter construction
  /// would leave the caller holding a moved-from request (see
  /// FusionCluster::serve_shard).
  void validate(const FusionRequest& request) const;

  /// Queues a request; thread-safe. Precondition: validate(request).
  /// Returns the ticket identifying the response.
  std::uint64_t submit(std::string client, FusionRequest request);

  /// Number of queued, not yet served requests; thread-safe.
  [[nodiscard]] std::size_t pending() const;

  /// Drops every queued, not yet served request and returns how many were
  /// discarded; thread-safe. The escape hatch for a backlog a failed
  /// drain() keeps re-queueing (see FusionCluster::discard_pending).
  std::size_t discard_pending();

  /// Serves every queued request as one batch and returns the responses in
  /// ticket order. Thread-safe; concurrent submits land in the next batch.
  ///
  /// `obs_parent` is the span id this batch's `gen.request` spans are
  /// parented under: pass the id carried in a serve frame when the caller
  /// is a worker serving a remote drain (cross-process trace stitching).
  /// The default 0 falls back to the calling thread's innermost live
  /// ScopedSpan (obs::current_span_id()), which nests in-process serving
  /// under the enclosing cluster.serve_top automatically.
  std::vector<Response> drain(std::uint64_t obs_parent = 0);

  [[nodiscard]] Stats stats() const;

  /// The persistent cross-batch closure memo (exposed for diagnostics; see
  /// ROADMAP "cross-request closure cache eviction").
  [[nodiscard]] const LowerCoverCache& cache() const noexcept {
    return cache_;
  }

  /// Replays a warm cache snapshot (LowerCoverCache::export_hot from a
  /// predecessor — the other half of the kCacheWarm handoff) into the
  /// closure cache; thread-safe. Entries must key partitions of top()'s
  /// state set; anything else is a caller bug the cache cannot detect, so
  /// the backends only ever replay snapshots exported for the same top.
  void warm_cache(const std::vector<WarmCacheEntry>& entries) {
    const obs::ScopedSpan span(options_.obs, "cache.warm_replay",
                               {.top = options_.obs_top});
    cache_.import(entries);
  }

 private:
  struct Pending {
    std::uint64_t ticket;
    std::string client;
    FusionRequest request;
  };

  Dfsm top_;
  FusionServiceOptions options_;
  LowerCoverCache cache_;
  mutable std::mutex mutex_;       // guards queue_, next_ticket_, stats_
  std::vector<Pending> queue_;
  std::uint64_t next_ticket_ = 1;
  Stats stats_;
};

}  // namespace ffsm
