#include "sim/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ffsm {

FusionCluster::FusionCluster(FusionClusterOptions options)
    : options_(std::move(options)),
      shards_(options_.shards),
      windows_(options_.telemetry_windows) {
  FFSM_EXPECTS(options_.shards >= 1);
  if (options_.obs != nullptr) {
    obs_ = options_.obs;
  } else {
    owned_obs_ = std::make_unique<obs::Obs>();
    obs_ = owned_obs_.get();
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (options_.backend_factory) {
      shards_[s].backend = options_.backend_factory(s);
      FFSM_EXPECTS(shards_[s].backend != nullptr);
    } else {
      FusionServiceOptions service_options;
      service_options.parallel = options_.parallel;
      service_options.pool = options_.pool;
      service_options.cache_capacity = options_.cache_capacity;
      // In-process shards record straight into the cluster's own context
      // (which is why ShardBackend::obs_snapshot's empty default is right
      // for them — nothing to merge twice).
      service_options.obs = obs_;
      shards_[s].backend = std::make_unique<InProcessBackend>(service_options);
    }
  }
  if (options_.telemetry_poll_us != 0)
    poller_ = std::thread([this] { poller_loop(); });
}

FusionCluster::~FusionCluster() { stop_poller(); }

std::size_t FusionCluster::shard_of(const std::string& key) const noexcept {
  // Byte hash, not std::hash: shard assignment must be stable across runs
  // and platforms so clients, logs and tests can all predict where a top
  // lives.
  return fnv1a_bytes(key) % shards_.size();
}

void FusionCluster::add_top(const std::string& key, Dfsm top) {
  Shard& shard = shards_[shard_of(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] = shard.tops.try_emplace(key);
  FFSM_EXPECTS(inserted);  // keys are unique across the cluster
  // Registration order: cluster bookkeeping first, then the backend, so a
  // backend that throws (e.g. worker spawn failure) leaves no half-entry —
  // roll the map entry back on failure.
  try {
    shard.backend->add_top(key, top);
  } catch (...) {
    shard.tops.erase(it);
    throw;
  }
}

bool FusionCluster::has_top(const std::string& key) const {
  const Shard& shard = shards_[shard_of(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.tops.contains(key);
}

std::size_t FusionCluster::top_count() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    count += shard.tops.size();
  }
  return count;
}

const ShardBackend& FusionCluster::backend(const std::string& key) const {
  const Shard& shard = shards_[shard_of(key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  FFSM_EXPECTS(shard.tops.contains(key));
  return *shard.backend;  // backends live as long as the cluster
}

const FusionService& FusionCluster::service(const std::string& key) const {
  const auto* in_process =
      dynamic_cast<const InProcessBackend*>(&backend(key));
  FFSM_EXPECTS(in_process != nullptr);  // in-process backends only
  return in_process->service(key);
}

ServiceStats FusionCluster::top_stats(const std::string& key) const {
  return backend(key).stats(key);
}

std::uint64_t FusionCluster::submit(const std::string& top_key,
                                    std::string client,
                                    FusionRequest request) {
  Shard& shard = shards_[shard_of(top_key)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  FFSM_EXPECTS(shard.tops.contains(top_key));
  const std::uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  shard.queue.push_back({ticket, top_key, std::move(client),
                         std::move(request),
                         obs_->enabled() ? obs_->now_us() : 0});
  requests_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs_->enabled()) {
    // Levels, not counts: moved back down as responses are delivered (or
    // the backlog is discarded), so a scrape sees the live backlog.
    obs_->gauge_add("cluster.queue_depth", 1);
    obs_->gauge_add("cluster.pending." + top_key, 1);
  }
  return ticket;
}

std::size_t FusionCluster::pending() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    std::vector<std::string> keys;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      count += shard.queue.size();
      keys.reserve(shard.tops.size());
      for (const auto& [key, entry] : shard.tops) keys.push_back(key);
    }
    // Backend pending() synchronizes internally; don't hold the shard's
    // topology lock across it.
    for (const std::string& key : keys) count += shard.backend->pending(key);
  }
  return count;
}

void FusionCluster::serve_shard(Shard& shard, std::uint64_t parent_span,
                                std::vector<Response>& responses,
                                std::uint64_t& requeued,
                                std::vector<std::string>& failed_tops) {
  std::vector<Item> items;
  // Snapshot the backlog and the topology. Entry pointers stay valid
  // outside the lock: unordered_map references are rehash-stable and tops
  // are never removed. Every queued item's top was registered before its
  // submit, so it is in this snapshot.
  std::vector<std::pair<const std::string*, TopEntry*>> entries;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    items.swap(shard.queue);
    entries.reserve(shard.tops.size());
    for (auto& [key, entry] : shard.tops) entries.emplace_back(&key, &entry);
  }
  ShardBackend& backend = *shard.backend;

  const auto record_failure = [&](const std::string& top) {
    if (std::find(failed_tops.begin(), failed_tops.end(), top) ==
        failed_tops.end())
      failed_tops.push_back(top);
    drain_failures_.fetch_add(1, std::memory_order_relaxed);
  };

  // Feed the backlog into the backend's per-top queues. This is where
  // request contents are validated (ShardBackend::validate checks
  // partition sizes against the top); a rejected request goes back to the
  // cluster queue. One clock read covers the whole feed loop — items
  // snapshotted above were all enqueued before this point, so the delta
  // never goes negative.
  const bool timed = obs_->enabled();
  const std::uint64_t feed_now = timed ? obs_->now_us() : 0;
  std::vector<Item> rejected;
  for (Item& item : items) {
    TopEntry* entry = nullptr;
    for (const auto& [key, candidate] : entries)
      if (*key == item.top) {
        entry = candidate;
        break;
      }
    FFSM_ASSERT(entry != nullptr);
    // Validate before moving the request into the backend: submit takes
    // its arguments by value, so a throw after the move would leave only
    // a moved-from husk to re-queue. The catch covers ONLY validation —
    // past it, submit can fail on allocation alone, and that propagates
    // as a drain error (via the caller's exception capture) rather than
    // re-queueing an empty request as if it were intact.
    try {
      backend.validate(item.top, item.request);
    } catch (...) {
      record_failure(item.top);
      rejected.push_back(std::move(item));
      continue;
    }
    if (timed && item.enqueued_us != 0)
      obs_->record("cluster.queue_wait", feed_now - item.enqueued_us);
    const std::uint64_t backend_ticket =
        backend.submit(item.top, item.client, std::move(item.request));
    entry->inflight.emplace(backend_ticket, item.ticket);
  }

  // Drain every top with a backlog — new submissions plus anything a
  // previously failed drain left queued inside the backend — in ONE
  // drain_tops call: in-process backends fan the tops across the pool,
  // wire backends pipeline every top's batch onto the connection before
  // awaiting any reply, so the shard costs one round trip. Results land in
  // per-top slots and merge in registration order below — bookkeeping
  // (inflight maps, failure records) stays single-threaded.
  std::vector<std::pair<const std::string*, TopEntry*>> backlogged;
  for (const auto& [key, entry] : entries)
    if (backend.pending(*key) != 0) backlogged.emplace_back(key, entry);
  const std::size_t backlogged_count = backlogged.size();
  std::vector<ShardBackend::TopDrain> drains(backlogged_count);
  {
    // One cluster.serve_top span per top, all open across the shared
    // round trip (the worker's gen.* spans parent under them). Finished in
    // reverse so the thread's current span unwinds like nested scopes.
    struct SpanStack {
      std::vector<std::unique_ptr<obs::ScopedSpan>> spans;
      ~SpanStack() {
        while (!spans.empty()) spans.pop_back();
      }
    } stack;
    for (std::size_t i = 0; i < backlogged_count; ++i) {
      const std::string& key = *backlogged[i].first;
      stack.spans.push_back(std::make_unique<obs::ScopedSpan>(
          obs_, "cluster.serve_top",
          obs::SpanTags{.top = key, .parent = parent_span}));
      drains[i].key = key;
      drains[i].obs_parent = stack.spans.back()->id();
    }
    if (backlogged_count != 0) backend.drain_tops(drains);
  }

  for (std::size_t i = 0; i < backlogged_count; ++i) {
    const std::string& key = *backlogged[i].first;
    TopEntry* entry = backlogged[i].second;
    if (drains[i].error) {
      // The backend kept the batch queued internally; retried on the next
      // cluster drain (a wire backend connects afresh then).
      record_failure(key);
      requeued += entry->inflight.size();
      continue;
    }
    std::vector<FusionResponse>& served = drains[i].responses;
    responses.reserve(responses.size() + served.size());
    std::int64_t delivered = 0;
    for (FusionResponse& r : served) {
      const auto it = entry->inflight.find(r.ticket);
      // Ticket 0 marks a request submitted to the backend directly,
      // bypassing the cluster; results are still delivered.
      std::uint64_t cluster_ticket = 0;
      if (it != entry->inflight.end()) {
        cluster_ticket = it->second;
        entry->inflight.erase(it);
        ++delivered;  // Only cluster-submitted requests moved the gauges.
      }
      responses.push_back({cluster_ticket, key, std::move(r.client),
                           std::move(r.result)});
    }
    if (timed && delivered != 0) {
      obs_->gauge_add("cluster.queue_depth", -delivered);
      obs_->gauge_add("cluster.pending." + key, -delivered);
    }
  }

  if (!rejected.empty()) {
    requeued += rejected.size();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    // Ahead of anything submitted meanwhile, preserving ticket order.
    shard.queue.insert(shard.queue.begin(),
                       std::make_move_iterator(rejected.begin()),
                       std::make_move_iterator(rejected.end()));
  }
}

FusionCluster::DrainReport FusionCluster::drain() {
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  drains_.fetch_add(1, std::memory_order_relaxed);
  // One span per drain round; serve_top and merge spans parent under it,
  // and its duration feeds the cluster.drain histogram.
  const obs::ScopedSpan drain_span(obs_, "cluster.drain");

  const std::size_t n = shards_.size();
  std::vector<std::vector<Response>> responses(n);
  std::vector<std::uint64_t> requeued(n, 0);
  std::vector<std::vector<std::string>> failed(n);

  // Exceptions must not escape a pool worker (ThreadPool terminates on
  // escape); serve_shard captures per-top failures itself, this guards the
  // plumbing around it.
  std::vector<std::exception_ptr> errors(n);
  const auto serve = [&](std::size_t s) {
    try {
      serve_shard(shards_[s], drain_span.id(), responses[s], requeued[s],
                  failed[s]);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };
  if (options_.parallel) {
    ParallelOptions popt;
    popt.pool = options_.pool;
    popt.serial_threshold = 2;  // shards are coarse-grained
    parallel_for(0, n, serve, popt);
  } else {
    for (std::size_t s = 0; s < n; ++s) serve(s);
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  DrainReport report;
  {
    const obs::ScopedSpan merge_span(obs_, "cluster.merge",
                                     {.parent = drain_span.id()});
    for (std::size_t s = 0; s < n; ++s) {
      report.responses.insert(report.responses.end(),
                              std::make_move_iterator(responses[s].begin()),
                              std::make_move_iterator(responses[s].end()));
      report.requeued += requeued[s];
      report.failed_tops.insert(report.failed_tops.end(), failed[s].begin(),
                                failed[s].end());
    }
    std::sort(report.responses.begin(), report.responses.end(),
              [](const Response& a, const Response& b) {
                return a.ticket < b.ticket;
              });
    std::sort(report.failed_tops.begin(), report.failed_tops.end());
    report.failed_tops.erase(
        std::unique(report.failed_tops.begin(), report.failed_tops.end()),
        report.failed_tops.end());
  }

  requests_served_.fetch_add(report.responses.size(),
                             std::memory_order_relaxed);
  requests_requeued_.fetch_add(report.requeued, std::memory_order_relaxed);
  return report;
}

std::size_t FusionCluster::discard_pending(const std::string& top_key) {
  // Serialized with drain() so the inflight bookkeeping can be reset
  // consistently with the backend queue it mirrors.
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  Shard& shard = shards_[shard_of(top_key)];
  std::size_t count = 0;
  // Gauge-tracked discards: every cluster-submitted request moved the
  // gauges up once, so cluster-queue removals plus inflight entries move
  // them back down (the backend's count can include direct submissions,
  // which never touched the gauges).
  std::size_t tracked = 0;
  TopEntry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto removed = std::remove_if(
        shard.queue.begin(), shard.queue.end(),
        [&](const Item& item) { return item.top == top_key; });
    count += static_cast<std::size_t>(shard.queue.end() - removed);
    shard.queue.erase(removed, shard.queue.end());
    tracked = count;
    const auto it = shard.tops.find(top_key);
    if (it != shard.tops.end()) entry = &it->second;
  }
  if (entry != nullptr) {
    // The other half of a poisoned backlog: requests a failed drain left
    // queued inside the backend. Outside a drain, inflight mirrors
    // exactly those, so both reset together.
    count += shard.backend->discard_pending(top_key);
    tracked += entry->inflight.size();
    entry->inflight.clear();
  }
  if (obs_->enabled() && tracked != 0) {
    obs_->gauge_add("cluster.queue_depth",
                    -static_cast<std::int64_t>(tracked));
    obs_->gauge_add("cluster.pending." + top_key,
                    -static_cast<std::int64_t>(tracked));
  }
  return count;
}

void FusionCluster::shutdown() {
  // Poller first: a poll racing backend shutdown would observe (or worse,
  // respawn) half-terminated workers.
  stop_poller();
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  for (Shard& shard : shards_) shard.backend->shutdown();
}

FusionCluster::Stats FusionCluster::stats() const {
  Stats out;
  out.requests_submitted =
      requests_submitted_.load(std::memory_order_relaxed);
  out.requests_served = requests_served_.load(std::memory_order_relaxed);
  out.requests_requeued =
      requests_requeued_.load(std::memory_order_relaxed);
  out.drains = drains_.load(std::memory_order_relaxed);
  out.drain_failures = drain_failures_.load(std::memory_order_relaxed);
  out.shards = shards_.size();
  out.pending = pending();
  for (const Shard& shard : shards_) {
    std::vector<std::string> keys;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      out.tops += shard.tops.size();
      keys.reserve(shard.tops.size());
      for (const auto& [key, entry] : shard.tops) keys.push_back(key);
    }
    // Fold every top's counters into one per-shard ServiceStats by the
    // aggregation rule declared next to each counter in the X-macro table
    // (sim/messages.hpp). kPerBackend counters repeat on every top of the
    // shard — the shared worker's restarts/failovers/probe failures — so
    // they fold by max, not sum; everything else accumulates. A counter
    // added to the table aggregates correctly here with no further code.
    ServiceStats totals;
    for (const std::string& key : keys) {
      const ServiceStats s = shard.backend->stats(key);
#define FFSM_FOLD_COUNTER(name, agg)                    \
  if constexpr (StatsAgg::agg == StatsAgg::kPerBackend) \
    totals.name = std::max(totals.name, s.name);        \
  else                                                  \
    totals.name += s.name;
      FFSM_SERVICE_STATS_COUNTERS(FFSM_FOLD_COUNTER)
#undef FFSM_FOLD_COUNTER
    }
    // Map the shard totals onto the cluster view. requests_submitted /
    // requests_served stay with the cluster's own atomics above (the
    // backend's copies count direct submissions too).
    out.shard_batches_served += totals.batches_served;
    out.restarts += totals.restarts;
    out.failovers += totals.failovers;
    out.health_probes_failed += totals.health_probes_failed;
    out.cache_hits += totals.cache_hits;
    out.cache_cold_misses += totals.cache_cold_misses;
    out.cache_eviction_misses += totals.cache_eviction_misses;
    out.cache_evictions += totals.cache_evictions;
    out.cache_entries += totals.cache_entries;
    out.cache_bytes += totals.cache_bytes;
  }
  return out;
}

obs::ObsSnapshot FusionCluster::obs_snapshot() {
  obs::ObsSnapshot out = obs_->snapshot();
  // Each wire backend answers a kObs query over its live connection (a
  // spawned worker's stdio channel or the current replica's socket);
  // in-process backends already recorded into obs_ and return {}. Merge
  // tags the remote spans with their shard so the Chrome export lays each
  // worker out on its own process track.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    out.merge(shards_[s].backend->obs_snapshot(),
              std::string("shard").append(std::to_string(s)));
  return out;
}

void FusionCluster::poll_telemetry() {
  // Same constituents as obs_snapshot(), ingested per source so each
  // one's diff baseline is independent — a respawned worker's counter
  // reset clamps on its own series without disturbing the others.
  const std::uint64_t now = obs_->now_us();
  // Metrics only: the windowed view never carries spans (diff drops
  // them), so don't pay for copying the trace ring on every poll.
  obs::ObsSnapshot parent;
  obs_->metrics().snapshot(&parent.counters, &parent.histograms,
                           &parent.gauges);
  windows_.ingest("parent", parent, now);
  for (std::size_t s = 0; s < shards_.size(); ++s)
    windows_.ingest(std::string("shard").append(std::to_string(s)),
                    shards_[s].backend->obs_snapshot(), now);
}

obs::WindowedObs FusionCluster::obs_windows() const { return windows_; }

void FusionCluster::poller_loop() {
  std::unique_lock<std::mutex> lock(poller_mutex_);
  while (!poller_stop_) {
    poller_cv_.wait_for(lock,
                        std::chrono::microseconds(options_.telemetry_poll_us),
                        [this] { return poller_stop_; });
    if (poller_stop_) return;
    // Poll outside the lock: a poll does a wire exchange per remote shard
    // and can take a while; a stop request only needs to win the next
    // wait, not interrupt a poll in flight.
    lock.unlock();
    poll_telemetry();
    lock.lock();
  }
}

void FusionCluster::stop_poller() {
  {
    const std::lock_guard<std::mutex> lock(poller_mutex_);
    poller_stop_ = true;
  }
  poller_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
}

}  // namespace ffsm
