// BackendConfig: one declarative description of a cluster's serving tier.
//
// A BackendConfig names the kind of backend plus every knob of it, and is
// the only options struct: WireBackend is built from one, and
// make_backend_factory() validates the shape (endpoint counts per kind)
// and returns the factory FusionClusterOptions::backend_factory consumes,
// so embedders (examples/fusion_service, benches, tests) never
// special-case a kind at the call site.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/health.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "sim/backend.hpp"

namespace ffsm {

struct BackendConfig {
  /// Where a shard's FusionServices live. kInProcess: this address space
  /// (the cluster's built-in default). kSubprocess: one ffsm_shard_worker
  /// child per shard over a stdio socketpair — a one-replica set whose
  /// connect spawns. kReplica: an ordered seed list of remote worker
  /// replicas per shard with lossless failover — one endpoint is a plain
  /// remote worker, every shard on its own connection.
  enum class Kind { kInProcess, kSubprocess, kReplica };

  Kind kind = Kind::kInProcess;
  /// Worker endpoints. Shape is validated by make_backend_factory():
  /// kReplica takes one or more (priority order), kInProcess and
  /// kSubprocess none.
  std::vector<net::Endpoint> endpoints;
  /// Worker binary for kSubprocess; empty = discovery rules
  /// (discover_worker_path). Ignored by the other kinds.
  std::string worker_path;
  /// Wire-safe service options shipped to workers at every handshake
  /// (and used verbatim by the in-process services).
  ShardServiceConfig service = {};
  /// Backoff across connect rounds; every round scans the whole replica
  /// set once (kSubprocess: spawns once). Exhausted rounds fail the
  /// attempt.
  net::RetryPolicy connect_retry = {};
  /// In-flight re-submit: how often a serve batch whose connection died
  /// mid-exchange is re-sent (each attempt connects first — possibly to a
  /// different replica, or to a fresh child) before the drain fails and
  /// the cluster re-queues.
  net::RetryPolicy serve_retry = {2, std::chrono::milliseconds(50),
                                  std::chrono::milliseconds(1000), 2};
  /// Maximum request frames in flight per serve exchange — the
  /// backpressure window. A backlog larger than this drains as several
  /// windows, each waiting for its responses.
  std::size_t serve_window = 32;
  /// Liveness oracle for the kReplica seed list, shared across shards;
  /// the backend watch()es its endpoints. Optional — without one,
  /// failover still works (pure priority-order scanning) but fail-back
  /// happens only on reconnect.
  std::shared_ptr<net::HealthMonitor> monitor;
  /// Optional observability context handed to every backend the factory
  /// builds (nullptr = uninstrumented). Typically the cluster's own Obs
  /// (FusionCluster::obs()), so backend-side events — wire timing,
  /// `worker.respawn`, `replica.failover` — land in the same timeline as
  /// the cluster's drain spans, and obs_snapshot() pulls the worker's own
  /// snapshot over the wire. Ignored by kInProcess (the cluster
  /// instruments its default backend directly).
  obs::Obs* obs = nullptr;
};

/// CLI name of a backend kind: "inprocess", "subprocess", "replica-tcp".
[[nodiscard]] const char* backend_kind_name(BackendConfig::Kind kind);

/// Strict inverse of backend_kind_name: false on any other spelling.
[[nodiscard]] bool parse_backend_kind(std::string_view name,
                                      BackendConfig::Kind& out);

/// Validates `config` and returns the factory for
/// FusionClusterOptions::backend_factory. kInProcess yields an empty
/// function (the cluster builds its default backend); the other kinds
/// build a WireBackend per shard. Throws ContractViolation on a shape
/// violation: endpoints where none belong, an empty kReplica seed list, or
/// a zero port anywhere.
[[nodiscard]] std::function<std::unique_ptr<ShardBackend>(std::size_t)>
make_backend_factory(BackendConfig config);

}  // namespace ffsm
