#include "sim/backend_config.hpp"

#include <utility>

#include "sim/replica_backend.hpp"
#include "sim/subprocess_backend.hpp"
#include "util/contracts.hpp"

namespace ffsm {

const char* backend_kind_name(BackendConfig::Kind kind) {
  switch (kind) {
    case BackendConfig::Kind::kInProcess:
      return "inprocess";
    case BackendConfig::Kind::kSubprocess:
      return "subprocess";
    case BackendConfig::Kind::kReplica:
      return "replica-tcp";
  }
  return "?";  // unreachable: all enumerators covered above
}

bool parse_backend_kind(std::string_view name, BackendConfig::Kind& out) {
  if (name == "inprocess") {
    out = BackendConfig::Kind::kInProcess;
  } else if (name == "subprocess") {
    out = BackendConfig::Kind::kSubprocess;
  } else if (name == "replica-tcp") {
    out = BackendConfig::Kind::kReplica;
  } else {
    return false;
  }
  return true;
}

std::function<std::unique_ptr<ShardBackend>(std::size_t)>
make_backend_factory(BackendConfig config) {
  const char* const name = backend_kind_name(config.kind);
  if (config.kind != BackendConfig::Kind::kReplica &&
      !config.endpoints.empty())
    throw ContractViolation(std::string("BackendConfig: backend '") + name +
                            "' takes no endpoints");
  if (config.kind == BackendConfig::Kind::kReplica &&
      config.endpoints.empty())
    throw ContractViolation(
        "BackendConfig: backend 'replica-tcp' needs at least one endpoint");
  for (const net::Endpoint& endpoint : config.endpoints)
    if (endpoint.port == 0)
      throw ContractViolation("BackendConfig: endpoint '" + endpoint.host +
                              "' has port 0");

  switch (config.kind) {
    case BackendConfig::Kind::kInProcess:
      // The cluster's default backend already honours the service options
      // embedders set on FusionClusterOptions; an empty factory selects it.
      return {};
    case BackendConfig::Kind::kSubprocess:
      return [config = std::move(config)](std::size_t) {
        SubprocessBackendOptions options;
        options.worker_path = config.worker_path;
        options.config = config.service;
        options.obs = config.obs;
        return std::make_unique<SubprocessBackend>(std::move(options));
      };
    case BackendConfig::Kind::kReplica:
      return [config = std::move(config)](std::size_t) {
        ReplicaBackendOptions options;
        options.endpoints = config.endpoints;
        options.config = config.service;
        options.connect_timeout = config.connect_timeout;
        options.connect_retry = config.connect_retry;
        options.serve_retry = config.serve_retry;
        options.serve_window = config.serve_window;
        options.keepalive_idle_s = config.keepalive_idle_s;
        options.keepalive_interval_s = config.keepalive_interval_s;
        options.keepalive_probes = config.keepalive_probes;
        options.monitor = config.monitor;
        options.obs = config.obs;
        return std::make_unique<ReplicaBackend>(std::move(options));
      };
  }
  return {};  // unreachable: all enumerators covered above
}

}  // namespace ffsm
