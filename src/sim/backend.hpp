// Pluggable shard backends for the FusionCluster.
//
// A cluster shard is no longer a set of concrete FusionService objects —
// it is a ShardBackend: per-top serving queues behind a message boundary.
// The cluster routes and re-queues; the backend owns the machines, the
// queues accepted from the cluster, and the closure caches. Three backends
// ship:
//
//   InProcessBackend  — the pre-refactor behaviour, bit-identical: one
//                       FusionService per registered top in this address
//                       space (the default).
//   SubprocessBackend — one worker process per shard speaking the wire
//                       protocol (sim/messages.hpp) over a socketpair;
//                       see sim/subprocess_backend.hpp.
//   ReplicaBackend    — the same wire over TCP to an ordered seed list of
//                       `ffsm_shard_worker --listen` replicas (one endpoint
//                       is a plain remote shard), with lossless failover;
//                       see sim/replica_backend.hpp.
//
// Contract shared by all backends: submit() queues, drain_tops() serves
// everything queued for a set of tops — each top's backlog as one batch,
// responses in ticket order — and a top whose drain failed keeps its
// requests queued inside the backend and reports the error, so the
// cluster's failed-drain path (record the failing top, retry next round,
// discard_pending as the escape hatch) works unchanged whether the failure
// was a malformed batch or a dead worker process. Wire backends pipeline
// the set: every top's batch is on the wire before any reply is awaited,
// so a whole shard drains in one round trip.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/server.hpp"
#include "sim/wire_conversation.hpp"

namespace ffsm {

class ShardBackend {
 public:
  /// One top's share of a drain_tops() round: the caller fills `key` and
  /// `obs_parent`, the backend fills `responses` or `error`.
  struct TopDrain {
    std::string key;
    /// Parent-side span the top's serving work is traced under (a worker's
    /// gen.* spans parent-link to it across the process boundary); 0 = the
    /// calling thread's innermost live span.
    std::uint64_t obs_parent = 0;
    /// Served requests in ticket order; empty for a top with no backlog.
    std::vector<FusionResponse> responses;
    /// Set when this top's drain failed; its requests stay queued.
    std::exception_ptr error;
  };

  virtual ~ShardBackend() = default;

  /// Registers `top` under `key` (the key must be new to this backend).
  /// Serialized by the cluster's shard lock; not called during drains.
  virtual void add_top(const std::string& key, const Dfsm& top) = 0;

  /// Precondition check for submit: every partition in `request` must
  /// partition the states of `key`'s top. Throws ContractViolation
  /// otherwise. Runs caller-side even for out-of-process backends (the
  /// caller registered the top, so it knows the machine) — a malformed
  /// request is rejected before it ever crosses the wire.
  virtual void validate(const std::string& key,
                        const FusionRequest& request) const = 0;

  /// Queues a request for `key`; returns the backend ticket identifying
  /// the eventual response. Precondition: validate(key, request).
  virtual std::uint64_t submit(const std::string& key, std::string client,
                               FusionRequest request) = 0;

  /// Queued, not yet served requests for `key`; thread-safe.
  [[nodiscard]] virtual std::size_t pending(const std::string& key) const = 0;

  /// Drops every queued request for `key`, returning how many.
  virtual std::size_t discard_pending(const std::string& key) = 0;

  /// Serves everything queued for every top in `tops` (distinct registered
  /// keys), each top's backlog as one batch. Failures are per top: a
  /// failed top keeps its requests queued and gets `error` set — the
  /// cluster re-runs them on its next drain — while the others are served.
  /// Wire backends put every top's batch on the wire before awaiting any
  /// reply: one round trip per call.
  virtual void drain_tops(std::span<TopDrain> tops) = 0;

  /// drain_tops() for the one top `key`: its responses in ticket order, or
  /// its error rethrown (the requests stay queued).
  std::vector<FusionResponse> drain(const std::string& key);

  /// Lifetime counters of `key`'s serving state. For an out-of-process
  /// backend these are the worker's counters: a restarted worker restarts
  /// them, exactly like any real process-level metric.
  [[nodiscard]] virtual ServiceStats stats(const std::string& key) const = 0;

  /// This backend's contribution to the cluster-wide observability view.
  /// Out-of-process backends query their worker over the wire (kObs) and
  /// return its counters, histograms and trace spans; a dead or pre-obs
  /// worker yields an empty snapshot. The in-process backend records
  /// directly into the cluster's own Obs, so the base default — empty — is
  /// correct for it (no double counting).
  [[nodiscard]] virtual obs::ObsSnapshot obs_snapshot() { return {}; }

  /// Releases backend resources (terminates worker processes, flushes
  /// queues are NOT dropped — only serving capacity goes away). Idempotent;
  /// also invoked by destruction.
  virtual void shutdown() {}
};

/// Shared parent-side half of every wire-protocol backend (subprocess,
/// replica): the registered tops with their self-contained machine texts,
/// the per-top request queues that make worker loss non-lossy, ticket
/// assignment, caller-side validation, and the handshake and serve round
/// every connection runs. Subclasses own the transport — how a connection
/// is made and replaced, drain/stats/shutdown — plus one hook:
/// register_added_top_locked, called under the lock by add_top so a live
/// transport learns new tops immediately (and can veto them before the
/// entry commits).
class QueuedWireBackend : public ShardBackend {
 public:
  void add_top(const std::string& key, const Dfsm& top) final;
  void validate(const std::string& key,
                const FusionRequest& request) const final;
  std::uint64_t submit(const std::string& key, std::string client,
                       FusionRequest request) final;
  [[nodiscard]] std::size_t pending(const std::string& key) const final;
  std::size_t discard_pending(const std::string& key) final;

 protected:
  struct TopState {
    std::string machine_text;    // self-contained to_text, for re-register
    std::uint32_t top_size = 0;  // states, for caller-side validate
    std::vector<WireRequest> queue;  // accepted, not yet served
    /// Warm cache snapshot the worker last attached to a delivered serve
    /// reply (it attaches one whenever the top's hottest keys moved),
    /// replayed alongside the config/top handshake when the transport is
    /// re-established — a respawned worker or failover target starts with
    /// the predecessor's hot set instead of stone-cold.
    std::vector<WarmCacheEntry> warm;
  };

  /// One top's batch while a drain_tops() round serves it.
  struct Batch {
    TopDrain* drain = nullptr;
    std::vector<WireRequest> requests;   // the queue as the attempt began
    std::vector<FusionResponse> served;  // responses so far, ticket order
    /// The warm snapshot the batch's final window carried, if any.
    std::optional<std::vector<WarmCacheEntry>> snapshot;
    bool finished = false;  // fully served, failed, or nothing to serve
  };

  /// Batches one pipelined wave carries at most; a larger set of
  /// backlogged tops drains in several round trips. Half the worker's
  /// in-flight serve-thread bound, so the worker's reader never stops
  /// reading while a wave is still arriving.
  static constexpr std::size_t kMaxPipelinedBatches =
      kMaxServeBatchesInFlight / 2;

  /// Copies every backlogged top's queue into a Batch; tops with an empty
  /// queue are left out. Requires mutex_.
  [[nodiscard]] std::vector<Batch> batches_locked(
      std::span<TopDrain* const> tops);

  /// Serves `batches` on `conversation` in windows of at most `window`
  /// requests, one pipelined wave of windows per round trip: a wave puts
  /// the next window of every unfinished batch on the wire (one exchange
  /// each) before it awaits any reply. The window that completes a batch
  /// allows the worker to attach the top's warm snapshot.
  /// A batch the worker answers with an error is finished with
  /// drain->error set. Throws NetError when the connection dies, and
  /// ContractViolation after poisoning the conversation when a reply is
  /// garbled; batches finished by then keep their results. `obs` (may be
  /// null) records wire.pipeline_depth per round trip and counts
  /// wire.warm_snapshot per snapshot received.
  static void serve_round(const std::shared_ptr<WireConversation>& conversation,
                          std::span<Batch* const> batches, std::size_t window,
                          obs::Obs* obs);

  /// Delivers the finished, unfailed batches of `round`: drops exactly
  /// their tickets from the queues (submits that raced the round stay),
  /// hands their responses to drain->responses, and keeps the warm
  /// snapshot they carried as their top's. Requires mutex_.
  void deliver_locked(std::span<Batch* const> round);

  /// The handshake every fresh connection runs before it serves, as
  /// exchanges on `conversation` (whose hello already ran): config, every
  /// registered top in registration order — so a respawned worker or a
  /// failover replica rebuilds the exact same services — then each top's
  /// last warm snapshot, so it starts with its predecessor's hot set
  /// instead of stone-cold. Requires mutex_. Throws NetError when the
  /// connection dies, and ContractViolation when the worker answers
  /// anything but ok; `peer` names the worker in that message.
  void handshake_locked(const std::shared_ptr<WireConversation>& conversation,
                        const ShardServiceConfig& config,
                        const std::string& peer);

  /// Registers `key`'s top with the worker behind `conversation`: one
  /// exchange, answered ok. Requires mutex_; throws like handshake_locked.
  void register_top_locked(
      const std::shared_ptr<WireConversation>& conversation,
      const std::string& key, const std::string& peer);

  /// One command, one reply, on a fresh exchange of `conversation`.
  /// Throws NetError when the connection dies, and ContractViolation
  /// (after poisoning the conversation) when the reply is garbled.
  [[nodiscard]] static Frame exchange(
      const std::shared_ptr<WireConversation>& conversation, Frame command);

  [[nodiscard]] TopState& top_of(const std::string& key);
  [[nodiscard]] const TopState& top_of(const std::string& key) const;

  /// Called by add_top with mutex_ held, after the entry was recorded. A
  /// throw rolls the registration back (the cluster rolls its own back
  /// too). Typical implementation: if the transport is live, send the
  /// `top` frame and expect "ok"; if not, do nothing — the (re)connect
  /// handshake registers every recorded top anyway.
  virtual void register_added_top_locked(const std::string& key) = 0;

  /// Serializes the wire conversation and guards tops_/top_order_/queues.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, TopState> tops_;
  std::vector<std::string> top_order_;  // registration order for replays
  std::uint64_t next_ticket_ = 1;

 private:
  /// exchange() for a command whose only good answer is ok: any other
  /// reply throws ContractViolation naming `what`, and a reply that is not
  /// even an error poisons the conversation first (the stream is no
  /// longer trustworthy; after an error it still is).
  static void expect_ok(const std::shared_ptr<WireConversation>& conversation,
                        Frame command, const std::string& what);
};

/// The default backend: the pre-refactor in-address-space behaviour, one
/// FusionService per registered top. Bit-identical responses and stats to
/// the pre-backend FusionCluster.
class InProcessBackend final : public ShardBackend {
 public:
  explicit InProcessBackend(FusionServiceOptions options);

  void add_top(const std::string& key, const Dfsm& top) override;
  void validate(const std::string& key,
                const FusionRequest& request) const override;
  std::uint64_t submit(const std::string& key, std::string client,
                       FusionRequest request) override;
  [[nodiscard]] std::size_t pending(const std::string& key) const override;
  std::size_t discard_pending(const std::string& key) override;
  /// Drains the tops in parallel on the configured pool.
  void drain_tops(std::span<TopDrain> tops) override;
  [[nodiscard]] ServiceStats stats(const std::string& key) const override;

  /// The concrete service hosting `key` — diagnostics hatch for callers
  /// that know they run in-process (see FusionCluster::service).
  [[nodiscard]] const FusionService& service(const std::string& key) const;

 private:
  [[nodiscard]] FusionService& service_of(const std::string& key) const;

  FusionServiceOptions options_;
  // Guards the services_ topology only; FusionService is itself
  // thread-safe, and map references are rehash-stable (services are never
  // removed), so calls proceed outside this lock.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<FusionService>> services_;
};

}  // namespace ffsm
