#include "sim/replica_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <numeric>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "sim/subprocess_backend.hpp"
#include "util/contracts.hpp"

namespace ffsm {

ReplicaBackend::ReplicaBackend(ReplicaBackendOptions options)
    : options_(std::move(options)) {
  FFSM_EXPECTS(!options_.endpoints.empty());
  for (const net::Endpoint& endpoint : options_.endpoints)
    FFSM_EXPECTS(endpoint.port != 0);
  if (options_.monitor)
    for (const net::Endpoint& endpoint : options_.endpoints)
      options_.monitor->watch(endpoint);
}

ReplicaBackend::~ReplicaBackend() { shutdown(); }

void ReplicaBackend::drop_connection_locked() noexcept {
  // Exchanges still on this conversation keep it alive through their
  // shared_ptr; they fail with NetError once it is poisoned, not here.
  conversation_.reset();
}

std::vector<std::size_t> ReplicaBackend::scan_order() const {
  std::vector<std::size_t> order(options_.endpoints.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!options_.monitor) return order;
  // Verdicts reorder, never exclude: kUp first, then kUnknown, then kDown,
  // priority (seed-list) order within each — stable_sort keeps it. Ranks
  // are snapshot once before sorting: the prober publishes concurrently,
  // and a comparator whose answers shift mid-sort breaks stable_sort's
  // strict-weak-ordering precondition.
  std::vector<int> rank(order.size());
  for (std::size_t replica = 0; replica < order.size(); ++replica) {
    switch (options_.monitor->health(options_.endpoints[replica]).state) {
      case net::ProbeState::kUp:
        rank[replica] = 0;
        break;
      case net::ProbeState::kUnknown:
        rank[replica] = 1;
        break;
      case net::ProbeState::kDown:
        rank[replica] = 2;
        break;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rank[a] < rank[b];
                   });
  return order;
}

void ReplicaBackend::connect_endpoint_locked(std::size_t replica) {
  const net::Endpoint& endpoint = options_.endpoints[replica];
  net::Socket socket = net::Socket::connect(endpoint.host, endpoint.port,
                                            options_.connect_timeout);
  // Serve reads carry no deadline (generation legitimately takes long),
  // so keepalive is what bounds a half-open connection: a vanished
  // replica host turns into a read error after idle + interval * probes
  // seconds, and the failover path takes over from there.
  if (options_.keepalive_idle_s > 0)
    socket.enable_keepalive(options_.keepalive_idle_s,
                            options_.keepalive_interval_s,
                            options_.keepalive_probes);
  net::LineChannel channel(std::move(socket));
  // A listen-mode worker starts every connection with clean state, so the
  // full handshake replays — which is why any replica serves
  // bit-identically. NetError here routes to the next replica; a worker
  // that *answers* but wrongly throws ContractViolation and is not routed
  // around.
  negotiate_wire(channel);
  auto conversation =
      std::make_shared<WireConversation>(std::move(channel), options_.obs);
  handshake_locked(conversation, options_.config,
                   "at " + net::to_string(endpoint));
  conversation_ = std::move(conversation);
  ++connects_;
  // A reconnect that lands on a different replica is a failover (or a
  // fail-back — both move the serving endpoint); the first connection
  // ever is neither.
  if (connects_ > 1 && replica != current_) {
    ++failovers_;
    if (options_.obs != nullptr)
      options_.obs->instant("replica.failover",
                            {.shard = net::to_string(endpoint)});
  }
  current_ = replica;
}

void ReplicaBackend::connect_any() {
  std::string last_error = "empty replica set";
  for (const std::size_t replica : scan_order()) {
    try {
      // The lock is taken per endpoint, not across the scan: one lock
      // hold is bounded by a single connect_timeout, never by
      // seed-list-size timeouts — submit()/pending()/stats() squeeze in
      // between attempts against a dead replica set.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (conversation_ && !conversation_->poisoned())
        return;  // raced a concurrent connector
      conversation_.reset();
      connect_endpoint_locked(replica);
      return;
    } catch (const net::NetError& error) {
      last_error = error.what();
      if (last_error.rfind("net: ", 0) == 0)
        last_error.erase(0, 5);  // the rethrow below re-adds the prefix
    }
  }
  throw net::NetError("no replica of " +
                      std::to_string(options_.endpoints.size()) +
                      " reachable; last: " + last_error);
}

void ReplicaBackend::maybe_fail_back_locked() {
  if (!options_.monitor || !conversation_ || current_ == 0) return;
  // Moving the connection is only lossless while nothing is in flight on
  // the wire; with exchanges active, fail-back waits for a later drain.
  if (conversation_->active_exchanges() != 0) return;
  for (std::size_t replica = 0; replica < current_; ++replica) {
    if (options_.monitor->health(options_.endpoints[replica]).state !=
        net::ProbeState::kUp)
      continue;
    // An earlier-priority replica probes healthy again: move back to it.
    drop_connection_locked();
    return;
  }
}

void ReplicaBackend::ensure_connected() {
  // with_retry sleeps between rounds with no lock held, and connect_any
  // locks per endpoint: a replica set that is restarting must not block
  // this shard's submit()/pending()/stats() for seconds of backoff or
  // for a whole-seed-list scan of connect timeouts.
  net::with_retry(options_.connect_retry, [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (conversation_ && conversation_->poisoned())
        drop_connection_locked();
      maybe_fail_back_locked();
      if (conversation_) return;
    }
    connect_any();
  });
}

void ReplicaBackend::register_added_top_locked(const std::string& key) {
  if (!conversation_ || conversation_->poisoned()) return;
  try {
    // A live connection learns the top through its own exchange, which
    // interleaves with in-flight drains.
    register_top_locked(conversation_, key,
                        "at " + net::to_string(options_.endpoints[current_]));
  } catch (const net::NetError&) {
    // The connection is dead, not the registration: drop it so the next
    // attempt reconnects lazily instead of re-hitting a corpse.
    drop_connection_locked();
    throw;
  }
}

std::mutex& ReplicaBackend::serve_gate(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *serve_gates_.try_emplace(key, std::make_unique<std::mutex>())
              .first->second;
}

void ReplicaBackend::drain_tops(std::span<TopDrain> tops) {
  // One drain per top at a time. The gates of a round are taken in key
  // order, so rounds over overlapping tops cannot deadlock; rounds over
  // disjoint tops proceed concurrently and interleave their exchanges on
  // the shared connection.
  std::vector<TopDrain*> order;
  for (TopDrain& top : tops) order.push_back(&top);
  const auto by_key = [](const TopDrain* a, const TopDrain* b) {
    return a->key < b->key;
  };
  std::sort(order.begin(), order.end(), by_key);
  // A repeated key would wait on its own gate.
  FFSM_EXPECTS(std::adjacent_find(order.begin(), order.end(),
                                  [](const TopDrain* a, const TopDrain* b) {
                                    return a->key == b->key;
                                  }) == order.end());
  std::vector<std::unique_lock<std::mutex>> gates;
  for (TopDrain* top : order) gates.emplace_back(serve_gate(top->key));

  // In-flight re-submit across the replica set: a connection that drops
  // mid-round is replaced (each attempt reconnects to the best replica
  // reachable, under connect_retry) and every unfinished top's batch
  // re-sent whole (generation is deterministic; only worker counters see
  // the repeat), options_.serve_retry.max_attempts times in total.
  // Anything else — protocol errors — propagates immediately with the
  // batches still queued. All backoff sleeps run unlocked, and so does
  // the wire I/O.
  std::vector<TopDrain*> pending;  // neither delivered nor failed yet
  for (TopDrain& top : tops) pending.push_back(&top);
  try {
    net::with_retry(options_.serve_retry, [&] {
      ensure_connected();
      std::shared_ptr<WireConversation> conversation;
      std::vector<Batch> batches;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!conversation_)
          throw net::NetError("connection lost before serve");
        conversation = conversation_;
        batches = batches_locked(pending);
      }
      std::vector<Batch*> round;
      for (Batch& batch : batches) round.push_back(&batch);
      const auto deliver = [&] {
        const std::lock_guard<std::mutex> lock(mutex_);
        deliver_locked(round);
        pending.clear();
        for (Batch& batch : batches)
          if (!batch.finished) pending.push_back(batch.drain);
      };
      try {
        serve_round(conversation, round, options_.serve_window, options_.obs);
      } catch (const ContractViolation&) {
        // Batches finished before the failure are delivered all the same.
        deliver();
        const std::lock_guard<std::mutex> lock(mutex_);
        if (conversation_ == conversation) drop_connection_locked();
        throw;
      }
      deliver();
    });
  } catch (const ContractViolation&) {
    // Exhausted retries (NetError) or a protocol failure: every top not
    // yet delivered keeps its batch queued and reports the error.
    for (TopDrain* top : pending) top->error = std::current_exception();
  }
}

void ReplicaBackend::fill_parent_counters_locked(ServiceStats& stats) const {
  // Per-connection worker counters reset with every replacement (real
  // process semantics); what this backend survived lives parent-side.
  stats.restarts = connects_ > 0 ? connects_ - 1 : 0;
  stats.failovers = failovers_;
  stats.health_probes_failed = 0;
  if (options_.monitor)
    for (const net::Endpoint& endpoint : options_.endpoints)
      stats.health_probes_failed +=
          options_.monitor->health(endpoint).probes_failed;
}

ServiceStats ReplicaBackend::stats(const std::string& key) const {
  std::shared_ptr<WireConversation> conversation;
  ServiceStats cold;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    (void)top_of(key);  // key must be registered
    fill_parent_counters_locked(cold);
    conversation = conversation_;
  }
  if (!conversation || conversation->poisoned()) return cold;
  try {
    Frame query(FrameType::kStatsQuery);
    query.key = key;
    const Frame reply = exchange(conversation, std::move(query));
    if (reply.type != FrameType::kStats) {
      if (reply.type != FrameType::kError)
        conversation->poison("unexpected stats reply");
      return cold;
    }
    ServiceStats remote = reply.stats;
    const std::lock_guard<std::mutex> lock(mutex_);
    fill_parent_counters_locked(remote);
    return remote;
  } catch (const ContractViolation&) {
    // Transport or protocol died mid-query (the conversation is already
    // poisoned); the next drain reconnects.
    return cold;
  }
}

obs::ObsSnapshot ReplicaBackend::obs_snapshot() {
  std::shared_ptr<WireConversation> conversation;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    conversation = conversation_;
  }
  // Disconnected => this incarnation has observed nothing; parent-side
  // timing (wire, queueing) lives in the cluster's own Obs already.
  if (!conversation || conversation->poisoned()) return {};
  try {
    // An empty kObs frame is the query form; the reply carries the
    // replica's per-connection snapshot.
    Frame reply = exchange(conversation, Frame(FrameType::kObs));
    if (reply.type != FrameType::kObs) {
      if (reply.type != FrameType::kError)
        conversation->poison("unexpected obs reply");
      return {};
    }
    return std::move(reply.obs);
  } catch (const ContractViolation&) {
    // Transport (NetError derives from this) or protocol died mid-query;
    // the conversation is already poisoned and the next drain reconnects.
    return {};
  }
}

void ReplicaBackend::shutdown() {
  std::shared_ptr<WireConversation> conversation;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    conversation = std::move(conversation_);
  }
  if (!conversation) return;
  // Fire-and-close: waiting for "bye" would block shutdown on a vanished
  // peer (serve reads carry no deadline), and the worker ends the
  // connection on EOF just the same.
  conversation->send_goodbye(Frame(FrameType::kShutdown));
  conversation->poison("shutdown");
}

std::uint64_t ReplicaBackend::connects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return connects_;
}

bool ReplicaBackend::connected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return conversation_ != nullptr && !conversation_->poisoned();
}

std::uint64_t ReplicaBackend::failovers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failovers_;
}

std::size_t ReplicaBackend::current_replica() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

// ------------------------------------------------- ListenerWorkerProcess

ListenerWorkerProcess::ListenerWorkerProcess()
    : ListenerWorkerProcess(Options()) {}

ListenerWorkerProcess::ListenerWorkerProcess(Options options) {
  const std::string path = discover_worker_path(options.worker_path);
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0)
    throw ContractViolation("ListenerWorkerProcess: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw ContractViolation("ListenerWorkerProcess: fork failed");
  }
  if (pid == 0) {
    // Child: stdout carries the `listening <port>` banner; the protocol
    // itself runs over accepted connections.
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string port_arg = std::to_string(options.port);
    ::execlp(path.c_str(), "ffsm_shard_worker", "--listen", port_arg.c_str(),
             static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the parent sees EOF on the banner pipe
  }
  ::close(out_pipe[1]);
  pid_ = static_cast<int>(pid);

  std::string banner;
  for (;;) {
    char c = 0;
    const ssize_t n = ::read(out_pipe[0], &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') break;
    banner += c;
  }
  ::close(out_pipe[0]);

  std::istringstream words(banner);
  std::string directive;
  unsigned port = 0;
  if (!(words >> directive >> port) || directive != "listening" ||
      port == 0 || port > 65535) {
    kill();
    throw ContractViolation(
        "ListenerWorkerProcess: worker did not report a listening port "
        "(got '" + banner + "'; is '" + path + "' an ffsm_shard_worker?)");
  }
  port_ = static_cast<std::uint16_t>(port);
}

void ListenerWorkerProcess::kill() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = 0;
  }
}

}  // namespace ffsm
