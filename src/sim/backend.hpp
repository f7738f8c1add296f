// Pluggable shard backends for the FusionCluster.
//
// A cluster shard is no longer a set of concrete FusionService objects —
// it is a ShardBackend: per-top serving queues behind a message boundary.
// The cluster routes and re-queues; the backend owns the machines, the
// queues accepted from the cluster, and the closure caches. Two backends
// ship:
//
//   InProcessBackend — the pre-refactor behaviour, bit-identical: one
//                      FusionService per registered top in this address
//                      space (the default).
//   WireBackend      — `ffsm_shard_worker` processes speaking the wire
//                      protocol (sim/messages.hpp): a private child over a
//                      socketpair, or an ordered seed list of TCP replicas
//                      with lossless failover; see sim/wire_backend.hpp.
//
// Contract shared by all backends: submit() queues, drain_tops() serves
// everything queued for a set of tops — each top's backlog as one batch,
// responses in ticket order — and a top whose drain failed keeps its
// requests queued inside the backend and reports the error, so the
// cluster's failed-drain path (record the failing top, retry next round,
// discard_pending as the escape hatch) works unchanged whether the failure
// was a malformed batch or a dead worker process. The wire backend
// pipelines the set: every top's batch is on the wire before any reply is
// awaited, so a whole shard drains in one round trip.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/server.hpp"

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
  /// The wire backend puts every top's batch on the wire before awaiting
  /// any reply: one round trip per call.
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
