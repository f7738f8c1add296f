#include "sim/server.hpp"

#include "util/contracts.hpp"

namespace ffsm {

State Server::state() const {
  FFSM_EXPECTS(state_.has_value());
  return *state_;
}

void Server::apply(EventId event) {
  if (const auto local = machine_.event_index(event)) apply_local(*local);
}

void Server::apply_local(std::uint32_t local) {
  FFSM_EXPECTS(local < machine_.events().size());
  if (!state_) {
    ++dropped_events_;
    return;
  }
  state_ = machine_.step_local(*state_, local);
}

void Server::corrupt(State wrong_state) {
  FFSM_EXPECTS(wrong_state < machine_.size());
  state_ = wrong_state;
}

void Server::restore(State correct_state) {
  FFSM_EXPECTS(correct_state < machine_.size());
  state_ = correct_state;
}

FusionService::FusionService(Dfsm top, FusionServiceOptions options)
    : top_(std::move(top)),
      options_(options),
      cache_(options.cache_capacity) {}

void FusionService::validate(const FusionRequest& request) const {
  for (const Partition& p : request.originals)
    FFSM_EXPECTS(p.size() == top_.size());
}

std::uint64_t FusionService::submit(std::string client,
                                    FusionRequest request) {
  validate(request);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back({ticket, std::move(client), std::move(request)});
  ++stats_.requests_submitted;
  return ticket;
}

std::size_t FusionService::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t FusionService::discard_pending() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = queue_.size();
  queue_.clear();
  return count;
}

std::vector<FusionService::Response> FusionService::drain(
    std::uint64_t obs_parent) {
  std::vector<Pending> batch;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    batch.swap(queue_);
  }
  if (batch.empty()) return {};

  std::vector<FusionRequest> requests;
  requests.reserve(batch.size());
  for (Pending& p : batch) requests.push_back(std::move(p.request));

  BatchOptions batch_options;
  batch_options.parallel = options_.parallel;
  batch_options.pool = options_.pool;
  batch_options.cache = &cache_;
  batch_options.obs = options_.obs;
  batch_options.obs_top = options_.obs_top;
  batch_options.obs_parent =
      obs_parent != 0 ? obs_parent : obs::current_span_id();
  std::vector<FusionResult> results;
  try {
    results = generate_fusion_batch(top_, requests, batch_options);
  } catch (...) {
    // Don't lose the drained requests: put them back (ahead of anything
    // submitted meanwhile, preserving ticket order) and let the caller see
    // the failure.
    for (std::size_t i = 0; i < batch.size(); ++i)
      batch[i].request = std::move(requests[i]);
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.insert(queue_.begin(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    throw;
  }

  std::vector<Response> responses;
  responses.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    responses.push_back({batch[i].ticket, std::move(batch[i].client),
                         std::move(results[i])});
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.requests_served += responses.size();
    ++stats_.batches_served;
  }
  return responses;
}

FusionService::Stats FusionService::stats() const {
  Stats out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
  }
  out.cache_hits = cache_.hits();
  out.cache_cold_misses = cache_.cold_misses();
  out.cache_eviction_misses = cache_.eviction_misses();
  out.cache_evictions = cache_.evictions();
  out.cache_entries = cache_.size();
  out.cache_bytes = cache_.approx_bytes();
  return out;
}

}  // namespace ffsm
