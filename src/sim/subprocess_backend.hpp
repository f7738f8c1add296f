// SubprocessBackend: a cluster shard served by a worker OS process.
//
// The first out-of-process ShardBackend: one `ffsm_shard_worker` process
// per shard, speaking the wire protocol (sim/messages.hpp) over a
// socketpair bridged to the worker's stdin/stdout. Machines travel as
// self-contained to_text (alphabet header included), so the worker
// reconstructs bit-exact transition tables and serves bit-identical
// fusions to the in-process backend.
//
// Queueing lives parent-side: submit() queues here, drain_tops() ships
// every backlogged top's whole queue as one `serve` batch each and clears a
// queue only once every response of its batch arrived. The connection is a
// WireConversation, like ReplicaBackend's, and the drain is the same
// pipelined round (QueuedWireBackend::serve_round): all batches are on the
// wire, one exchange each, before any reply is awaited, and replies are
// routed back in whatever order the worker's serve threads finish — one
// round trip drains the shard. A worker death (EOF / failed
// write mid-exchange) is never lossy: the backend reaps the corpse, fails
// the unfinished tops, and the cluster's failed-drain path retries their
// still-queued requests on its next round — at which point the backend
// respawns a fresh worker and re-registers its tops. A restarted worker
// restarts its counters and caches (exactly like any real process-level
// state); results are unaffected because caches never change results.
//
// Parent <-> worker exchanges (serialized on an internal mutex; Frame
// types of sim/messages.hpp), after the hello line each way:
//   config / top / cachewarm import    -> ok | error          (at spawn)
//   serve + n request frames (per top,  -> serving + n responses
//     all tops before any reply)          [+ cachewarm] + done | error
//   stats query                        -> stats | error
//   obs query                          -> obs
//   shutdown                           -> bye, then worker exit
// A serve reply carries the top's warm cache snapshot, the one the next
// respawn replays, whenever the worker's hottest keys for that top moved
// since the last snapshot it shipped, so a warm steady state ships none.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/backend.hpp"
#include "sim/wire_conversation.hpp"

namespace ffsm {

/// Resolves the shard-worker binary shared by the out-of-process backends:
/// explicit path if non-empty, else $FFSM_SHARD_WORKER, else
/// "ffsm_shard_worker" next to the current executable (tests, benches and
/// the worker all land in the same build directory).
[[nodiscard]] std::string discover_worker_path(
    const std::string& explicit_path);

struct SubprocessBackendOptions {
  /// Path to the ffsm_shard_worker binary. Empty = $FFSM_SHARD_WORKER,
  /// falling back to "ffsm_shard_worker" next to the current executable.
  std::string worker_path;
  /// Wire-safe service options sent to the worker at every (re)spawn.
  ShardServiceConfig config = {};
  /// Optional observability context (nullptr = uninstrumented): the
  /// backend emits a `worker.respawn` instant event per respawn, and
  /// obs_snapshot() pulls the worker's own counters/histograms/spans over
  /// the wire (kObs).
  obs::Obs* obs = nullptr;
};

class SubprocessBackend final : public QueuedWireBackend {
 public:
  explicit SubprocessBackend(SubprocessBackendOptions options = {});
  ~SubprocessBackend() override;

  SubprocessBackend(const SubprocessBackend&) = delete;
  SubprocessBackend& operator=(const SubprocessBackend&) = delete;

  // add_top / validate / submit / pending / discard_pending: the shared
  // parent-side queueing of QueuedWireBackend.
  /// Pipelines every backlogged top's batch (one exchange per top, all
  /// sent before any reply is awaited), respawning the worker first if
  /// needed.
  void drain_tops(std::span<TopDrain> tops) override;
  /// Worker counters for `key`; all-zero when no worker is running (a
  /// fresh or just-crashed shard really has served nothing), with
  /// `restarts` filled parent-side from the spawn count.
  [[nodiscard]] ServiceStats stats(const std::string& key) const override;
  /// The live worker's observability snapshot via a kObs exchange; empty
  /// when no worker is running or the query fails (the next drain
  /// respawns).
  [[nodiscard]] obs::ObsSnapshot obs_snapshot() override;
  /// Graceful worker termination (`shutdown` + EOF + waitpid). Queued
  /// requests stay queued; the next drain() respawns.
  void shutdown() override;

  /// Pid of the live worker, 0 when none — exposed so tests and fault
  /// injectors can kill the process underneath the backend.
  [[nodiscard]] int worker_pid() const;
  /// Workers (re)spawned so far — 1 after the first drain, +1 per restart.
  [[nodiscard]] std::uint64_t spawns() const;

 private:
  /// A live worker learns new tops immediately; otherwise the next
  /// ensure_worker_locked() registers them with the rest.
  void register_added_top_locked(const std::string& key) override;

  /// Spawns + hello + handshake (handshake_locked) if no worker is
  /// running. Throws ContractViolation on spawn or handshake failure.
  void ensure_worker_locked();
  /// Reaps the worker (SIGKILL + waitpid) and drops the conversation.
  void kill_worker_locked() noexcept;
  /// Whether a conversation with a worker is open and unpoisoned.
  [[nodiscard]] bool live_locked() const;
  /// One command, one reply frame on the live conversation. A dead worker
  /// or a garbled reply reaps the worker and throws (via die_locked),
  /// with `context` in the message.
  Frame exchange_locked(Frame command, const char* context);
  [[noreturn]] void die_locked(const std::string& what);

  SubprocessBackendOptions options_;
  int worker_pid_ = 0;
  /// The live worker's stdio connection; null when none.
  std::shared_ptr<WireConversation> conversation_;
  std::uint64_t spawns_ = 0;
};

}  // namespace ffsm
