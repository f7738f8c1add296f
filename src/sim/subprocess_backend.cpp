#include "sim/subprocess_backend.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace ffsm {

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
  return "ffsm_shard_worker";  // last resort: $PATH lookup via execlp
}

SubprocessBackend::SubprocessBackend(SubprocessBackendOptions options)
    : options_(std::move(options)) {}

SubprocessBackend::~SubprocessBackend() { shutdown(); }

void SubprocessBackend::die_locked(const std::string& what) {
  kill_worker_locked();
  throw ContractViolation("SubprocessBackend: " + what);
}

void SubprocessBackend::kill_worker_locked() noexcept {
  if (conversation_) {
    conversation_->poison("worker reaped");
    conversation_.reset();
  }
  if (worker_pid_ > 0) {
    ::kill(worker_pid_, SIGKILL);
    ::waitpid(worker_pid_, nullptr, 0);
    worker_pid_ = 0;
  }
}

bool SubprocessBackend::live_locked() const {
  return conversation_ != nullptr && !conversation_->poisoned();
}

Frame SubprocessBackend::exchange_locked(Frame command, const char* context) {
  try {
    return exchange(conversation_, std::move(command));
  } catch (const ContractViolation& error) {
    // A dead worker (NetError) or a garbled reply — either way the stream
    // is unusable: reap, and the next drain respawns.
    die_locked(std::string(context) + ": " + error.what());
  }
}

void SubprocessBackend::ensure_worker_locked() {
  if (live_locked() && worker_pid_ > 0) {
    const pid_t status = ::waitpid(worker_pid_, nullptr, WNOHANG);
    if (status == 0) return;  // worker is running
    // Exited (reaped just now) or already gone: forget the pid BEFORE the
    // cleanup below — SIGKILLing a reaped pid could hit whatever process
    // the kernel recycled it to.
    worker_pid_ = 0;
  }
  kill_worker_locked();  // drop a stale conversation, if any

  const std::string path = discover_worker_path(options_.worker_path);
  int sv[2];
  // SOCK_CLOEXEC: shards spawn workers concurrently during a parallel
  // drain, and a sibling fork between our socketpair() and exec would
  // otherwise inherit a copy of sv[1] — keeping this channel open after
  // our worker dies and so masking its EOF forever. dup2 below clears
  // CLOEXEC on the child's own stdin/stdout copies.
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw ContractViolation("SubprocessBackend: socketpair failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw ContractViolation("SubprocessBackend: fork failed");
  }
  if (pid == 0) {
    // Child: bridge the channel to stdin/stdout and become the worker.
    ::dup2(sv[1], STDIN_FILENO);
    ::dup2(sv[1], STDOUT_FILENO);
    ::close(sv[0]);
    ::close(sv[1]);
    ::execlp(path.c_str(), "ffsm_shard_worker", static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the parent sees EOF on its first read
  }
  ::close(sv[1]);
  net::LineChannel channel{net::Socket(sv[0])};
  worker_pid_ = static_cast<int>(pid);
  ++spawns_;
  // The first spawn is cold start, not a fault; every further one replaced
  // a dead worker.
  if (options_.obs != nullptr && spawns_ > 1)
    options_.obs->instant("worker.respawn");

  // The hello, then the handshake: configure, re-register every top in
  // registration order (so a respawned worker rebuilds the exact same
  // services) and replay the last warm snapshots.
  try {
    negotiate_wire(channel);
    conversation_ =
        std::make_shared<WireConversation>(std::move(channel), options_.obs);
    handshake_locked(conversation_, options_.config,
                     "pid " + std::to_string(worker_pid_));
  } catch (const net::NetError& error) {
    die_locked("worker closed the channel during the handshake (is '" +
               path + "' an ffsm_shard_worker?): " + error.what());
  } catch (const ContractViolation& error) {
    die_locked(error.what());
  }
}

void SubprocessBackend::register_added_top_locked(const std::string& key) {
  if (!live_locked()) return;
  try {
    register_top_locked(conversation_, key,
                        "pid " + std::to_string(worker_pid_));
  } catch (const ContractViolation& error) {
    die_locked(error.what());
  }
}

void SubprocessBackend::drain_tops(std::span<TopDrain> tops) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TopDrain*> all;
  for (TopDrain& top : tops) all.push_back(&top);
  std::vector<Batch> batches = batches_locked(all);
  if (batches.empty()) return;
  std::vector<Batch*> round;
  for (Batch& batch : batches) round.push_back(&batch);
  try {
    ensure_worker_locked();
    // The worker is this backend's alone, so a batch goes out whole: no
    // backpressure window.
    serve_round(conversation_, round, std::numeric_limits<std::size_t>::max(),
                options_.obs);
  } catch (const ContractViolation&) {
    // A failed spawn, a dead worker (NetError) or a garbled stream: reap
    // it. The unfinished tops keep their batches queued and report the
    // error; the next drain respawns.
    kill_worker_locked();
    for (Batch& batch : batches)
      if (!batch.finished) batch.drain->error = std::current_exception();
  }
  deliver_locked(round);
}

ServiceStats SubprocessBackend::stats(const std::string& key) const {
  auto* self = const_cast<SubprocessBackend*>(this);
  const std::lock_guard<std::mutex> lock(mutex_);
  (void)top_of(key);  // key must be registered
  // Parent-side restart counter: worker counters restart with the worker
  // (like any real process-level metric), respawns are what this backend
  // survived — so `restarts` lives here, uniformly with ReplicaBackend.
  ServiceStats cold;
  cold.restarts = spawns_ > 0 ? spawns_ - 1 : 0;
  // No worker => nothing has served: all-zero counters, like a cold
  // service.
  if (!live_locked()) return cold;
  try {
    Frame query(FrameType::kStatsQuery);
    query.key = key;
    const Frame reply = self->exchange_locked(std::move(query), "stats");
    if (reply.type != FrameType::kStats) return cold;
    ServiceStats remote = reply.stats;
    remote.restarts = cold.restarts;
    return remote;
  } catch (const ContractViolation&) {
    // Channel died mid-query; the next drain respawns. Report cold.
    return cold;
  }
}

obs::ObsSnapshot SubprocessBackend::obs_snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // No worker => nothing observed this incarnation; the parent-side view
  // (queueing, wire timing) lives in the cluster's own Obs already.
  if (!live_locked()) return {};
  try {
    // An empty kObs frame is the query form; the worker replies with a
    // kObs frame carrying its snapshot.
    Frame reply = exchange_locked(Frame(FrameType::kObs), "obs");
    if (reply.type != FrameType::kObs) return {};
    return std::move(reply.obs);
  } catch (const ContractViolation&) {
    // Channel died mid-query; the next drain respawns. Report empty.
    return {};
  }
}

void SubprocessBackend::shutdown() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (conversation_) {
    // Best-effort goodbye: a worker already gone is reaped all the same.
    conversation_->send_goodbye(Frame(FrameType::kShutdown));
    conversation_->poison("shutdown");
    conversation_.reset();
  }
  if (worker_pid_ > 0) {
    // The worker exits on `shutdown` or stdin EOF, whichever it sees
    // first; reap it so no zombie outlives the backend.
    ::waitpid(worker_pid_, nullptr, 0);
    worker_pid_ = 0;
  }
}

int SubprocessBackend::worker_pid() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return worker_pid_;
}

std::uint64_t SubprocessBackend::spawns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spawns_;
}

}  // namespace ffsm
