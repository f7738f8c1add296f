#include "sim/wire_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "fsm/serialize.hpp"
#include "net/retry.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace ffsm {

namespace {

/// Bounded time per TCP connect attempt against a black-holed host.
constexpr std::chrono::milliseconds kConnectTimeout{2000};
/// TCP keepalive on every replica connection: seconds idle before
/// probing, seconds between probes, probes before the peer is declared
/// dead. Generation can legitimately take minutes, so serve reads carry no
/// deadline; keepalive is what turns a half-open connection (the peer
/// host died without FIN/RST) into a bounded-time NetError instead of a
/// drain wedged forever.
constexpr int kKeepaliveIdleS = 30;
constexpr int kKeepaliveIntervalS = 10;
constexpr int kKeepaliveProbes = 3;

/// Batches one pipelined wave carries at most; a larger set of backlogged
/// tops drains in several round trips. Half the worker's in-flight
/// serve-thread bound, so the worker's reader never stops reading while a
/// wave is still arriving.
constexpr std::size_t kMaxPipelinedBatches = kMaxServeBatchesInFlight / 2;

/// Forks and execs the shard worker at `path`: with `--listen
/// <listen_port>` when that is non-null, else as a stdio worker. The
/// child's stdout goes to `out` and, unless it is -1, its stdin to `in`.
/// Both must be close-on-exec here: shards spawn concurrently during a
/// parallel drain, and a sibling's fork between their creation and this
/// exec would otherwise keep a copy open after the worker dies, masking
/// its EOF forever (dup2 clears the flag on the child's stdio copies).
/// Returns the child's pid; an exec failure shows as EOF on `out`.
int spawn_worker(const std::string& path, int in, int out,
                 const char* listen_port) {
  const char* const argv[] = {"ffsm_shard_worker",
                              listen_port == nullptr ? nullptr : "--listen",
                              listen_port, nullptr};
  const pid_t pid = ::fork();
  if (pid < 0) throw ContractViolation("fork of the shard worker failed");
  if (pid == 0) {
    if (in >= 0) ::dup2(in, STDIN_FILENO);
    ::dup2(out, STDOUT_FILENO);
    ::execvp(path.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  return static_cast<int>(pid);
}

/// SIGKILL + reap; 0 = no process.
void kill_worker(int pid) noexcept {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

/// Reply side of one serve window: takes the worker's frames for it in
/// order — serving, one response per request, a cachewarm snapshot (only
/// on a window that allowed one), done.
class ServeReply {
 public:
  ServeReply(std::uint64_t expected, bool warm)
      : expected_(expected), warm_(warm) {}

  /// Takes the window's next frame; true once its dialogue is over: done
  /// arrived, or the worker answered error instead of serving (failure()
  /// then holds the detail, and the stream is still in sync). Throws
  /// ContractViolation on a frame out of order — the stream can no longer
  /// be trusted.
  bool accept(Frame frame) {
    const auto out_of_order = [&frame](const char* expected) {
      throw ContractViolation(std::string("expected ") + expected +
                              ", got '" + frame_type_name(frame.type) + "'");
    };
    if (!serving_) {
      if (frame.type == FrameType::kError) {
        failure_ = std::move(frame.text);
        return true;
      }
      if (frame.type != FrameType::kServing || frame.count != expected_)
        out_of_order("'serving' for the whole window");
      serving_ = true;
      responses.reserve(expected_);
      return false;
    }
    if (responses.size() < expected_) {
      if (frame.type != FrameType::kResponse) out_of_order("a response");
      responses.push_back(std::move(frame.response));
      return false;
    }
    if (warm_ && !snapshot && frame.type == FrameType::kCacheWarm) {
      snapshot = std::move(frame.entries);
      return false;
    }
    if (frame.type != FrameType::kDone) out_of_order("'done'");
    return true;
  }

  [[nodiscard]] const std::optional<std::string>& failure() const noexcept {
    return failure_;
  }

  std::vector<FusionResponse> responses;
  std::optional<std::vector<WarmCacheEntry>> snapshot;

 private:
  std::uint64_t expected_;
  bool warm_;
  bool serving_ = false;
  std::optional<std::string> failure_;
};

/// One window as frames: the serve command for `key` (trace parent, warm
/// flag) followed by one request frame per entry of `requests`.
std::vector<Frame> serve_frames(const std::string& key, std::uint64_t parent,
                                bool warm,
                                std::span<const WireRequest> requests) {
  std::vector<Frame> frames;
  frames.reserve(requests.size() + 1);
  Frame& serve = frames.emplace_back(FrameType::kServe);
  serve.key = key;
  serve.count = requests.size();
  serve.parent = parent;
  serve.warm = warm;
  for (const WireRequest& request : requests)
    frames.emplace_back(FrameType::kRequest).request = request;
  return frames;
}

/// One command, one reply, on a fresh exchange of `conversation`. Throws
/// NetError when the connection dies, and ContractViolation (after
/// poisoning the conversation) when the reply is garbled.
Frame round_trip(const std::shared_ptr<WireConversation>& conversation,
                 Frame command) {
  WireConversation::Exchange exchange = WireConversation::open(conversation);
  exchange.send(std::move(command));
  return exchange.receive();
}

/// round_trip() for a command whose only good answer is ok: any other reply
/// throws ContractViolation naming `what`, and a reply that is not even an
/// error poisons the conversation first (the stream is no longer
/// trustworthy; after an error it still is).
void expect_ok(const std::shared_ptr<WireConversation>& conversation,
               Frame command, const std::string& what) {
  const Frame reply = round_trip(conversation, std::move(command));
  if (reply.type == FrameType::kOk) return;
  if (reply.type == FrameType::kError)
    throw ContractViolation(what + ": " + reply.text);
  conversation->poison("unexpected reply");
  throw ContractViolation(what + ": unexpected '" +
                          frame_type_name(reply.type) + "' reply");
}

}  // namespace

std::string discover_worker_path(const std::string& explicit_path) {
  if (!explicit_path.empty()) return explicit_path;
  if (const char* env = std::getenv("FFSM_SHARD_WORKER");
      env != nullptr && *env != '\0')
    return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string path(buf);
    if (const auto slash = path.rfind('/'); slash != std::string::npos) {
      path.erase(slash + 1);
      return path + "ffsm_shard_worker";
    }
  }
  return "ffsm_shard_worker";  // last resort: $PATH lookup via execvp
}

// ---------------------------------------------------------- WireBackend

WireBackend::WireBackend(BackendConfig config) : config_(std::move(config)) {
  FFSM_EXPECTS(config_.kind != BackendConfig::Kind::kInProcess);
  FFSM_EXPECTS(spawning() == config_.endpoints.empty());
  for (const net::Endpoint& endpoint : config_.endpoints)
    FFSM_EXPECTS(endpoint.port != 0);
  if (config_.monitor)
    for (const net::Endpoint& endpoint : config_.endpoints)
      config_.monitor->watch(endpoint);
}

WireBackend::~WireBackend() { shutdown(); }

WireBackend::TopState& WireBackend::top_of(const std::string& key) {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

const WireBackend::TopState& WireBackend::top_of(
    const std::string& key) const {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

std::string WireBackend::peer(std::size_t replica) const {
  if (spawning())
    return "'" + discover_worker_path(config_.worker_path) + "'";
  return "at " + net::to_string(config_.endpoints[replica]);
}

void WireBackend::drop_connection_locked() noexcept {
  // Exchanges still on this conversation keep it alive through their
  // shared_ptr; they fail with NetError once it is poisoned (for a spawned
  // worker: once the kill below closes its end), not here.
  conversation_.reset();
  kill_worker(std::exchange(worker_pid_, 0));
}

std::vector<std::size_t> WireBackend::scan_order() const {
  std::vector<std::size_t> order(spawning() ? 1 : config_.endpoints.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!config_.monitor || order.size() < 2) return order;
  // Verdicts reorder, never exclude: kUp first, then kUnknown, then kDown,
  // priority (seed-list) order within each — stable_sort keeps it. Ranks
  // are snapshot once before sorting: the prober publishes concurrently,
  // and a comparator whose answers shift mid-sort breaks stable_sort's
  // strict-weak-ordering precondition.
  std::vector<int> rank(order.size());
  for (std::size_t replica = 0; replica < order.size(); ++replica) {
    switch (config_.monitor->health(config_.endpoints[replica]).state) {
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

net::LineChannel WireBackend::spawn_locked() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw ContractViolation("WireBackend: socketpair failed");
  net::Socket ours(sv[0]);
  const net::Socket theirs(sv[1]);  // the child's copy outlives this one
  worker_pid_ = spawn_worker(discover_worker_path(config_.worker_path),
                             theirs.fd(), theirs.fd(), nullptr);
  return net::LineChannel(std::move(ours));
}

void WireBackend::connect_locked(std::size_t replica) {
  const std::string name = peer(replica);
  try {
    net::LineChannel channel;
    if (spawning()) {
      channel = spawn_locked();
    } else {
      const net::Endpoint& endpoint = config_.endpoints[replica];
      net::Socket socket =
          net::Socket::connect(endpoint.host, endpoint.port, kConnectTimeout);
      socket.enable_keepalive(kKeepaliveIdleS, kKeepaliveIntervalS,
                              kKeepaliveProbes);
      channel = net::LineChannel(std::move(socket));
    }
    // A fresh worker (a spawned one, or a listen-mode connection) starts
    // with clean state, so the full handshake replays. NetError here
    // routes to the next replica; a worker that *answers* but wrongly
    // throws ContractViolation and is not routed around.
    negotiate_wire(channel);
    auto conversation =
        std::make_shared<WireConversation>(std::move(channel), config_.obs);
    handshake_locked(conversation, name);
    conversation_ = std::move(conversation);
  } catch (const net::NetError& error) {
    drop_connection_locked();
    if (!spawning()) throw;
    throw net::NetError("worker " + name +
                        " closed the channel (is it an ffsm_shard_worker?): " +
                        error.what());
  } catch (...) {
    drop_connection_locked();
    throw;
  }
  ++connects_;
  // The first connection ever is cold start, not a fault. Every further
  // spawn replaced a dead worker; a reconnect that lands on a different
  // replica is a failover (or a fail-back — both move the serving
  // endpoint).
  if (connects_ > 1 && spawning() && config_.obs != nullptr)
    config_.obs->instant("worker.respawn");
  if (connects_ > 1 && replica != current_) {
    ++failovers_;
    const std::string endpoint = net::to_string(config_.endpoints[replica]);
    if (config_.obs != nullptr)
      config_.obs->instant("replica.failover", {.shard = endpoint});
  }
  current_ = replica;
}

void WireBackend::connect_any() {
  std::string last_error = "empty replica set";
  const std::vector<std::size_t> order = scan_order();
  for (const std::size_t replica : order) {
    try {
      // The lock is taken per replica, not across the scan: one lock hold
      // is bounded by a single connect attempt, never by seed-list-size
      // timeouts — submit()/pending()/stats() squeeze in between attempts
      // against a dead replica set.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (conversation_ && !conversation_->poisoned())
        return;  // raced a concurrent connector
      drop_connection_locked();
      connect_locked(replica);
      return;
    } catch (const net::NetError& error) {
      last_error = error.what();
      if (last_error.rfind("net: ", 0) == 0)
        last_error.erase(0, 5);  // the rethrow below re-adds the prefix
    }
  }
  const std::string replicas = std::to_string(order.size());
  throw net::NetError("no replica of " + replicas + " reachable; last: " +
                      last_error);
}

void WireBackend::maybe_fail_back_locked() {
  if (!config_.monitor || !conversation_ || current_ == 0) return;
  // Moving the connection is only lossless while nothing is in flight on
  // the wire; with exchanges active, fail-back waits for a later drain.
  if (conversation_->active_exchanges() != 0) return;
  for (std::size_t replica = 0; replica < current_; ++replica) {
    if (config_.monitor->health(config_.endpoints[replica]).state !=
        net::ProbeState::kUp)
      continue;
    // An earlier-priority replica probes healthy again: move back to it.
    drop_connection_locked();
    return;
  }
}

void WireBackend::ensure_connected() {
  // with_retry sleeps between rounds with no lock held, and connect_any
  // locks per replica: a replica set that is restarting must not block
  // this shard's submit()/pending()/stats() for seconds of backoff or for
  // a whole-seed-list scan of connect timeouts.
  net::with_retry(config_.connect_retry, [&] {
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

void WireBackend::register_top_locked(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& key, const std::string& peer) {
  Frame top(FrameType::kTop);
  top.key = key;
  top.text = top_of(key).machine_text;
  expect_ok(conversation, std::move(top),
            "worker " + peer + " rejected top '" + key + "'");
}

void WireBackend::handshake_locked(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& peer) {
  Frame configure(FrameType::kConfig);
  configure.config = config_.service;
  expect_ok(
      conversation, std::move(configure),
      "worker " + peer + " rejected config (is it an ffsm_shard_worker?)");
  for (const std::string& key : top_order_)
    register_top_locked(conversation, key, peer);
  for (const std::string& key : top_order_) {
    const TopState& top = top_of(key);
    if (top.warm.empty()) continue;
    Frame warm(FrameType::kCacheWarm);
    warm.key = key;
    warm.entries = top.warm;
    expect_ok(conversation, std::move(warm),
              "worker " + peer + " rejected warm cache for '" + key + "'");
  }
}

void WireBackend::add_top(const std::string& key, const Dfsm& top) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FFSM_EXPECTS(!tops_.contains(key));
  TopState state;
  state.machine_text = to_text(top);  // self-contained: alphabet header
  state.top_size = top.size();
  tops_.emplace(key, std::move(state));
  top_order_.push_back(key);
  if (!conversation_ || conversation_->poisoned()) return;
  try {
    // A live connection learns the top through its own exchange, which
    // interleaves with in-flight drains.
    register_top_locked(conversation_, key, peer(current_));
  } catch (...) {
    // Roll our entry back — the cluster rolls its own back too, and a key
    // the cluster denies must not linger here blocking re-registration.
    tops_.erase(key);
    top_order_.pop_back();
    // A broken stream, not a refused registration: drop it so the next
    // attempt connects afresh instead of re-hitting a corpse.
    if (conversation_->poisoned()) drop_connection_locked();
    throw;
  }
}

void WireBackend::validate(const std::string& key,
                           const FusionRequest& request) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const TopState& top = top_of(key);
  for (const Partition& p : request.originals)
    FFSM_EXPECTS(p.size() == top.top_size);
}

std::uint64_t WireBackend::submit(const std::string& key, std::string client,
                                  FusionRequest request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::uint64_t ticket = next_ticket_++;
  top.queue.push_back({ticket, std::move(client), std::move(request)});
  return ticket;
}

std::size_t WireBackend::pending(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return top_of(key).queue.size();
}

std::size_t WireBackend::discard_pending(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::size_t count = top.queue.size();
  top.queue.clear();
  return count;
}

std::vector<WireBackend::Batch> WireBackend::batches_locked(
    std::span<TopDrain* const> tops) {
  std::vector<Batch> batches;
  for (TopDrain* drain : tops) {
    const TopState& top = top_of(drain->key);
    if (top.queue.empty()) continue;
    Batch& batch = batches.emplace_back();
    batch.drain = drain;
    // Copy, don't move: the queue stays authoritative until every
    // response of the batch has arrived.
    batch.requests = top.queue;
  }
  return batches;
}

void WireBackend::serve_round(
    const std::shared_ptr<WireConversation>& conversation,
    std::span<Batch* const> batches) const {
  const std::size_t window = std::max<std::size_t>(1, config_.serve_window);
  obs::Obs* const obs = config_.obs;
  for (;;) {
    // One wave: the next window of every batch still being served. The
    // window bounds each batch's request frames on the wire before its
    // responses are awaited, so a wedged worker stalls the drain with one
    // window per top buffered instead of the whole backlog.
    std::vector<Batch*> wave;
    for (Batch* batch : batches)
      if (!batch->finished && wave.size() < kMaxPipelinedBatches)
        wave.push_back(batch);
    if (wave.empty()) return;
    if (obs != nullptr) obs->record("wire.pipeline_depth", wave.size());
    std::vector<WireConversation::Exchange> exchanges;
    std::vector<ServeReply> replies;
    for (const Batch* batch : wave) {
      const std::size_t count =
          std::min(window, batch->requests.size() - batch->served.size());
      // Only the window that completes the batch may bring a snapshot.
      const bool last = batch->served.size() + count == batch->requests.size();
      exchanges.push_back(WireConversation::open(conversation));
      // Trace stitching: the top's cluster.serve_top becomes the parent of
      // the worker's gen.* spans for this window.
      exchanges.back().send(serve_frames(
          batch->drain->key, batch->drain->obs_parent, last,
          std::span(batch->requests).subspan(batch->served.size(), count)));
      replies.emplace_back(count, last);
    }
    for (std::size_t k = 0; k < wave.size(); ++k) {
      try {
        while (!replies[k].accept(exchanges[k].receive())) {
        }
      } catch (const net::NetError&) {
        throw;
      } catch (const ContractViolation& error) {
        conversation->poison(error.what());
        throw;
      }
      Batch& batch = *wave[k];
      if (const auto& failure = replies[k].failure()) {
        // The worker is alive and in sync — the batch itself failed (the
        // analogue of generate_fusion_batch throwing in-process). Its
        // requests stay queued for the cluster's retry path.
        batch.finished = true;
        batch.drain->error = std::make_exception_ptr(ContractViolation(
            "worker failed to serve '" + batch.drain->key + "': " + *failure));
        continue;
      }
      for (FusionResponse& response : replies[k].responses)
        batch.served.push_back(std::move(response));
      if (replies[k].snapshot) {
        batch.snapshot = std::move(replies[k].snapshot);
        if (obs != nullptr) obs->count("wire.warm_snapshot");
      }
      batch.finished = batch.served.size() == batch.requests.size();
    }
  }
}

void WireBackend::deliver_locked(std::span<Batch* const> round) {
  for (Batch* batch : round) {
    if (!batch->finished || batch->drain->error) continue;
    TopState& top = top_of(batch->drain->key);
    std::unordered_set<std::uint64_t> served;
    served.reserve(batch->requests.size());
    for (const WireRequest& request : batch->requests)
      served.insert(request.ticket);
    std::erase_if(top.queue, [&](const WireRequest& request) {
      return served.contains(request.ticket);
    });
    batch->drain->responses = std::move(batch->served);
    batch->requests.clear();
    if (batch->snapshot) top.warm = std::move(*batch->snapshot);
  }
}

std::mutex& WireBackend::serve_gate(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *serve_gates_.try_emplace(key, std::make_unique<std::mutex>())
              .first->second;
}

void WireBackend::drain_tops(std::span<TopDrain> tops) {
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

  // In-flight re-submit: a connection that drops mid-round is replaced
  // (each attempt connects to the best replica reachable, or spawns a
  // fresh worker, under connect_retry) and every unfinished top's batch
  // re-sent whole (generation is deterministic; only worker counters see
  // the repeat), serve_retry.max_attempts times in total. Anything else —
  // protocol errors — propagates at once with the batches still queued.
  // All backoff sleeps run unlocked, and so does the wire I/O.
  std::vector<TopDrain*> pending;  // neither delivered nor failed yet
  for (TopDrain& top : tops) pending.push_back(&top);
  try {
    net::with_retry(config_.serve_retry, [&] {
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
        serve_round(conversation, round);
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

void WireBackend::fill_parent_counters_locked(ServiceStats& stats) const {
  // Per-connection worker counters reset with every replacement (real
  // process semantics); what this backend survived lives parent-side.
  stats.restarts = connects_ > 0 ? connects_ - 1 : 0;
  stats.failovers = failovers_;
  stats.health_probes_failed = 0;
  if (config_.monitor)
    for (const net::Endpoint& endpoint : config_.endpoints)
      stats.health_probes_failed +=
          config_.monitor->health(endpoint).probes_failed;
}

ServiceStats WireBackend::stats(const std::string& key) const {
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
    const Frame reply = round_trip(conversation, std::move(query));
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

obs::ObsSnapshot WireBackend::obs_snapshot() {
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
    // worker's per-connection snapshot.
    Frame reply = round_trip(conversation, Frame(FrameType::kObs));
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

void WireBackend::shutdown() {
  std::shared_ptr<WireConversation> conversation;
  int pid = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    conversation = std::move(conversation_);
    pid = std::exchange(worker_pid_, 0);
  }
  if (conversation && !conversation->poisoned()) {
    // Fire-and-close: waiting for "bye" would block shutdown on a vanished
    // peer (serve reads carry no deadline), and the worker ends the
    // connection on EOF just the same. A spawned worker then exits, and
    // is reaped so no zombie outlives the backend.
    conversation->send_goodbye(Frame(FrameType::kShutdown));
    conversation->poison("shutdown");
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  } else {
    kill_worker(pid);  // its stream broke: nobody is listening for goodbye
  }
}

std::uint64_t WireBackend::connects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return connects_;
}

bool WireBackend::connected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return conversation_ != nullptr && !conversation_->poisoned();
}

int WireBackend::worker_pid() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return worker_pid_;
}

std::uint64_t WireBackend::failovers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failovers_;
}

std::size_t WireBackend::current_replica() const {
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
  const net::Socket banner_in(out_pipe[0]);
  {
    // stdout carries the `listening <port>` banner; the protocol itself
    // runs over accepted connections.
    const net::Socket banner_out(out_pipe[1]);
    pid_ = spawn_worker(path, -1, banner_out.fd(),
                        std::to_string(options.port).c_str());
  }

  std::string banner;
  for (;;) {
    char c = 0;
    const ssize_t n = ::read(banner_in.fd(), &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') break;
    banner += c;
  }

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
  kill_worker(std::exchange(pid_, 0));
}

}  // namespace ffsm
