#include "sim/backend_config.hpp"

#include <utility>

#include "sim/wire_backend.hpp"
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

  // The cluster's default backend already honours the service options
  // embedders set on FusionClusterOptions; an empty factory selects it.
  if (config.kind == BackendConfig::Kind::kInProcess) return {};
  return [config = std::move(config)](std::size_t) {
    return std::make_unique<WireBackend>(config);
  };
}

}  // namespace ffsm
