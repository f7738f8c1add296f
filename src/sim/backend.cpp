#include "sim/backend.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace ffsm {

std::vector<FusionResponse> ShardBackend::drain(const std::string& key) {
  TopDrain top;
  top.key = key;
  top.obs_parent = obs::current_span_id();
  drain_tops({&top, 1});
  if (top.error) std::rethrow_exception(top.error);
  return std::move(top.responses);
}

// ----------------------------------------------------- InProcessBackend

InProcessBackend::InProcessBackend(FusionServiceOptions options)
    : options_(options) {}

FusionService& InProcessBackend::service_of(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(key);
  FFSM_EXPECTS(it != services_.end());
  return *it->second;
}

void InProcessBackend::add_top(const std::string& key, const Dfsm& top) {
  // Each service tags its spans with its serving key, so one shared Obs
  // still tells the tops apart.
  FusionServiceOptions per_top = options_;
  per_top.obs_top = key;
  auto service = std::make_unique<FusionService>(top, per_top);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = services_.try_emplace(key, std::move(service));
  FFSM_EXPECTS(inserted);
}

void InProcessBackend::validate(const std::string& key,
                                const FusionRequest& request) const {
  service_of(key).validate(request);
}

std::uint64_t InProcessBackend::submit(const std::string& key,
                                       std::string client,
                                       FusionRequest request) {
  return service_of(key).submit(std::move(client), std::move(request));
}

std::size_t InProcessBackend::pending(const std::string& key) const {
  return service_of(key).pending();
}

std::size_t InProcessBackend::discard_pending(const std::string& key) {
  return service_of(key).discard_pending();
}

void InProcessBackend::drain_tops(std::span<TopDrain> tops) {
  const auto drain_one = [&](std::size_t i) {
    TopDrain& top = tops[i];
    try {
      top.responses = service_of(top.key).drain(top.obs_parent);
    } catch (...) {
      top.error = std::current_exception();
    }
  };
  if (options_.parallel) {
    ParallelOptions popt;
    popt.pool = options_.pool;
    popt.serial_threshold = 2;  // a whole batch per iteration
    parallel_for(0, tops.size(), drain_one, popt);
  } else {
    for (std::size_t i = 0; i < tops.size(); ++i) drain_one(i);
  }
}

ServiceStats InProcessBackend::stats(const std::string& key) const {
  return service_of(key).stats();
}

const FusionService& InProcessBackend::service(const std::string& key) const {
  return service_of(key);
}

}  // namespace ffsm
