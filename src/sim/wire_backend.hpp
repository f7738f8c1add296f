// WireBackend: a cluster shard served by ffsm_shard_worker processes over
// the wire protocol (sim/messages.hpp).
//
// The paper's deployment story — f spare resources standing by so any f
// crashed machines recover without loss — applied to the serving layer
// itself, with one crash model for every out-of-process shard. A shard is
// a replica set of interchangeable workers served through the current
// primary, and BackendConfig::kind decides only how a connection opens:
//
//   kReplica     an ordered seed list of `ffsm_shard_worker --listen`
//                replicas (possibly on other hosts), reached over TCP in
//                priority order; one endpoint is a plain remote shard.
//   kSubprocess  a one-replica set whose connect forks a private
//                `ffsm_shard_worker` bridged to a socketpair over its
//                stdin/stdout.
//
// Everything after the channel is open is one code path. The hello and the
// handshake (config, every registered top in registration order, each
// top's last warm cache snapshot) run on every fresh connection, so a
// respawned worker or a failover replica rebuilds the exact same services
// and serves its first drain from its predecessor's hot set; caches never
// change results, so it serves bit-identically. Queueing stays
// parent-side: submit() queues here, drain_tops() copies each backlogged
// top's queue into a batch and clears a queue only once every response of
// its batch arrived. A drain puts the next window of every batch on the
// wire, one exchange each, before it awaits any reply; concurrent drains
// of different tops interleave on the one connection (wire I/O runs
// outside the backend lock). A connection that dies mid-round — a
// SIGKILLed worker, a dropped socket — is replaced inside the drain and
// the unfinished batches re-sent, so worker loss is lossless. With every
// replica unreachable (or a worker that cannot start) the drain fails with
// the batches still queued and the cluster's failed-drain path takes over;
// the next drain connects again.
//
// A spawned worker is this backend's child: every dropped one (a failed
// hello or handshake, a poisoned stream) is SIGKILLed and reaped, and
// shutdown() sends the goodbye and waits for it to exit, so no zombie
// outlives the backend and RUSAGE_CHILDREN counts it.
//
// Endpoint selection consults an optional net::HealthMonitor probing the
// seed list in the background: the connect scan tries replicas the
// monitor believes alive first (priority order within each verdict) but
// never skips one — a stale verdict only reorders attempts, it cannot
// cause unavailability. While serving through a lower-priority replica,
// a higher-priority one probing back up triggers *fail-back* on the next
// drain: the connection moves only when no exchange is active on the
// wire, so nothing is dropped.
//
// Parent <-> worker exchanges (Frame types of sim/messages.hpp), after the
// hello line each way:
//   config / top / cachewarm import    -> ok | error      (at connect)
//   serve + n request frames (per top,  -> serving + n responses
//     all tops before any reply)          [+ cachewarm] + done | error
//   stats query                        -> stats | error
//   obs query                          -> obs
//   shutdown                           -> bye, then the connection ends
// A serve reply carries the top's warm cache snapshot, the one the next
// connection replays, whenever the worker's hottest keys for that top
// moved since the last snapshot it shipped, so a warm steady state ships
// none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/line_channel.hpp"
#include "sim/backend_config.hpp"
#include "sim/wire_conversation.hpp"

namespace ffsm {

/// Resolves the shard-worker binary: explicit path if non-empty, else
/// $FFSM_SHARD_WORKER, else "ffsm_shard_worker" next to the current
/// executable (tests, benches and the worker all land in the same build
/// directory).
[[nodiscard]] std::string discover_worker_path(
    const std::string& explicit_path);

class WireBackend final : public ShardBackend {
 public:
  /// `config.kind` is kSubprocess (no endpoints) or kReplica (at least one
  /// endpoint, ports nonzero); make_backend_factory() checks the same
  /// shape with a friendlier message. The monitor, if any, watch()es the
  /// endpoints from here on.
  explicit WireBackend(BackendConfig config);
  ~WireBackend() override;

  WireBackend(const WireBackend&) = delete;
  WireBackend& operator=(const WireBackend&) = delete;

  /// Records the top; a live connection learns it at once through its own
  /// exchange, otherwise the next connect's handshake registers it.
  void add_top(const std::string& key, const Dfsm& top) override;
  /// Caller-side: partition sizes against the registered top, so a
  /// malformed request never crosses the wire.
  void validate(const std::string& key,
                const FusionRequest& request) const override;
  std::uint64_t submit(const std::string& key, std::string client,
                       FusionRequest request) override;
  [[nodiscard]] std::size_t pending(const std::string& key) const override;
  std::size_t discard_pending(const std::string& key) override;
  /// Connects if needed, pipelines the tops' batches in serve_window
  /// windows, and re-sends unfinished batches on a fresh connection when
  /// the connection drops mid-round.
  void drain_tops(std::span<TopDrain> tops) override;
  /// Worker counters for `key` from the live connection (per-connection on
  /// the worker side); all-zero when disconnected. restarts, failovers and
  /// health_probes_failed are filled parent-side — the worker that answers
  /// cannot know how often it was replaced.
  [[nodiscard]] ServiceStats stats(const std::string& key) const override;
  /// The live worker's observability snapshot via a kObs exchange
  /// (per-connection on the worker side, like stats()); empty when
  /// disconnected or the query fails.
  [[nodiscard]] obs::ObsSnapshot obs_snapshot() override;
  /// Sends the goodbye and closes; a spawned worker is then reaped.
  /// Replicas keep listening. Queued requests stay queued and the next
  /// drain() connects again.
  void shutdown() override;

  /// Successful connections so far — 1 after the first drain, +1 per
  /// reconnect or respawn. restarts = connects() - 1.
  [[nodiscard]] std::uint64_t connects() const;
  /// Whether a connection is currently open (tests probe recovery).
  [[nodiscard]] bool connected() const;
  /// Pid of the live spawned worker, 0 when none (and always for
  /// kReplica) — exposed so tests can kill the process underneath.
  [[nodiscard]] int worker_pid() const;
  /// Times the serving endpoint moved to a *different* replica.
  [[nodiscard]] std::uint64_t failovers() const;
  /// Seed-list index of the live (or most recent) connection's replica.
  [[nodiscard]] std::size_t current_replica() const;

 private:
  struct TopState {
    std::string machine_text;    // self-contained to_text, for re-register
    std::uint32_t top_size = 0;  // states, for caller-side validate
    std::vector<WireRequest> queue;  // accepted, not yet served
    /// Warm cache snapshot the worker last attached to a delivered serve
    /// reply, replayed by the next connection's handshake.
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

  [[nodiscard]] bool spawning() const noexcept {
    return config_.kind == BackendConfig::Kind::kSubprocess;
  }

  /// Fail-back check + connect + handshake if disconnected, retrying per
  /// connect_retry with the backoff sleeps outside the mutex. Throws
  /// NetError once every round failed on every replica.
  void ensure_connected();
  /// Drops a connection to a lower-priority replica when the monitor
  /// reports an earlier one back up. Only fires while no exchange is
  /// active on the wire — parent-side queueing makes the drop lossless.
  void maybe_fail_back_locked();
  /// One scan over the replica set in scan_order(); the first successful
  /// connect + handshake wins. Locks per replica (one lock hold is one
  /// connect attempt, never the whole scan). Throws NetError if every
  /// replica failed; protocol rejections (ContractViolation) propagate at
  /// once — a worker that *answers wrongly* is not routed around.
  void connect_any();
  /// Opens a channel to `replica` (spawn or dial), runs the hello and the
  /// handshake, and installs the fresh conversation.
  void connect_locked(std::size_t replica);
  /// The kSubprocess connect step: forks a stdio worker over a fresh
  /// socketpair, recording its pid, and returns the parent's end.
  [[nodiscard]] net::LineChannel spawn_locked();
  /// Replica indices in attempt order: monitor-alive first (priority
  /// order within each verdict: kUp, kUnknown, kDown), every replica
  /// present exactly once. Reads only the config and the monitor.
  [[nodiscard]] std::vector<std::size_t> scan_order() const;
  /// Names `replica` in error messages.
  [[nodiscard]] std::string peer(std::size_t replica) const;
  /// Forgets the connection; a spawned worker is SIGKILLed and reaped.
  void drop_connection_locked() noexcept;

  /// The handshake every fresh connection runs before it serves: config,
  /// every registered top in registration order, then each top's last warm
  /// snapshot. Throws NetError when the connection dies, and
  /// ContractViolation when the worker answers anything but ok.
  void handshake_locked(const std::shared_ptr<WireConversation>& conversation,
                        const std::string& peer);
  /// Registers `key`'s top: one exchange, answered ok.
  void register_top_locked(
      const std::shared_ptr<WireConversation>& conversation,
      const std::string& key, const std::string& peer);

  /// Copies every backlogged top's queue into a Batch; tops with an empty
  /// queue are left out.
  [[nodiscard]] std::vector<Batch> batches_locked(
      std::span<TopDrain* const> tops);
  /// Serves `batches` on `conversation` in windows of at most
  /// serve_window requests, one pipelined wave of windows per round trip.
  /// A batch the worker answers with an error is finished with
  /// drain->error set. Throws NetError when the connection dies, and
  /// ContractViolation after poisoning the conversation when a reply is
  /// garbled; batches finished by then keep their results.
  void serve_round(const std::shared_ptr<WireConversation>& conversation,
                   std::span<Batch* const> batches) const;
  /// Delivers the finished, unfailed batches of `round`: drops exactly
  /// their tickets from the queues (submits that raced the round stay),
  /// hands their responses to drain->responses, and keeps the warm
  /// snapshot they carried as their top's.
  void deliver_locked(std::span<Batch* const> round);

  /// Serializes drains per top — the cluster already guarantees one drain
  /// per top at a time, the gate makes it a local invariant. Gates are
  /// created lazily and never removed, so the returned reference is
  /// stable.
  [[nodiscard]] std::mutex& serve_gate(const std::string& key);
  /// Parent-side counters the remote cannot know, onto `stats`.
  void fill_parent_counters_locked(ServiceStats& stats) const;

  [[nodiscard]] TopState& top_of(const std::string& key);
  [[nodiscard]] const TopState& top_of(const std::string& key) const;

  const BackendConfig config_;
  /// Guards everything below. Never held across a serve round.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, TopState> tops_;
  std::vector<std::string> top_order_;  // registration order for replays
  std::uint64_t next_ticket_ = 1;
  std::shared_ptr<WireConversation> conversation_;
  int worker_pid_ = 0;  // the spawned worker behind conversation_, or 0
  /// One gate per top (lazily created; pointers keep them stable under
  /// rehash). Locked for a whole drain, which outlives mutex_ holds.
  std::unordered_map<std::string, std::unique_ptr<std::mutex>> serve_gates_;
  std::uint64_t connects_ = 0;
  std::uint64_t failovers_ = 0;
  std::size_t current_ = 0;  // replica index of the live/last connection
};

/// A locally spawned `ffsm_shard_worker --listen` process — the loopback
/// harness tests, benches and examples use to stand in for a remote host
/// (or for one replica of one). Spawns at construction, parses the
/// worker's `listening <port>` banner (so port 0 = ephemeral works),
/// SIGKILLs + reaps at destruction.
class ListenerWorkerProcess {
 public:
  struct Options {
    /// Worker binary; empty = the discover_worker_path rules.
    std::string worker_path;
    /// 0 = ephemeral; pass a previous instance's port() to respawn a
    /// listener on the same address (SO_REUSEADDR makes this race-free).
    std::uint16_t port = 0;
  };

  ListenerWorkerProcess();  // Options() defaults: ephemeral port
  explicit ListenerWorkerProcess(Options options);
  ~ListenerWorkerProcess() { kill(); }

  ListenerWorkerProcess(const ListenerWorkerProcess&) = delete;
  ListenerWorkerProcess& operator=(const ListenerWorkerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// SIGKILL + reap; idempotent. Established connections drop, which is
  /// exactly what the mid-serve kill tests need.
  void kill() noexcept;

 private:
  int pid_ = 0;
  std::uint16_t port_ = 0;
};

}  // namespace ffsm
