// ffsm_shard_worker: the out-of-process half of the serving backends.
//
// One worker hosts one cluster shard: a FusionService per registered top,
// served over the negotiated wire protocol (sim/messages.hpp). Two
// transports, one protocol:
//
//   (default)        stdin/stdout — the SubprocessBackend socketpair
//                    bridge; one connection, then exit.
//   --listen <port>  a TCP listener (port 0 = ephemeral; the actual port
//                    is announced as `listening <port>` on stdout) — the
//                    TcpBackend's remote end. Each accepted connection is
//                    served on its own thread with its own clean state, so
//                    several shards (or several clusters) can share one
//                    worker process; `shutdown` ends the connection, not
//                    the listener.
//
// Every connection starts in text. A parent that wants the binary framing
// opens with `hello <version> bin[,text]`; the worker answers
// `hello <version> <choice>` and both sides switch (see sim/messages.hpp
// "negotiation" — the version must match exactly, a mismatch is refused).
// `--wire=text` pins the pre-negotiation behaviour — the hello is just an
// unknown command, answered with `error ...`, which is exactly the reply
// an auto-mode parent treats as "fall back to text". `--wire=bin` refuses
// non-negotiating parents instead of falling back.
//
// The parent owns all queueing and retry policy; the worker is a
// stateless-between-drains serving engine whose only cross-exchange state
// is what makes it worth keeping alive — the per-top closure caches and
// stats counters, both scoped to one connection.
//
// Protocol (as Frame types; see sim/messages.hpp for both encodings):
//   config                     -> ok            (once, before tops)
//   top                        -> ok | error
//   serve + n request frames   -> serving + n responses [+ cachewarm]
//                                 + done | error
//   stats query                -> stats | error
//   cachewarm (import)         -> ok | error
//   ping                       -> pong
//   shutdown (or EOF)          -> bye, connection done
//
// On the text wire exchanges run strictly one at a time. On the binary
// wire every command carries an exchange id and serve batches are
// dispatched to their own threads, so drains for different tops interleave
// on one connection — a parent pipelines every backlogged top's batch in
// one write and reads the replies in whatever order they finish; replies
// echo the command's exchange id and each reply batch is sent as one
// write.
//
// Machines arrive as self-contained to_text (alphabet header included), so
// the worker reconstructs bit-exact transition tables and its fusions are
// bit-identical to in-process serving.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fsm/serialize.hpp"
#include "net/exposition_server.hpp"
#include "net/line_channel.hpp"
#include "net/listener.hpp"
#include "obs/exposition.hpp"
#include "obs/obs.hpp"
#include "sim/messages.hpp"
#include "sim/server.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ffsm;

/// Once a frame's first line (or first byte) has arrived, the rest of that
/// frame must arrive within this budget. A peer that dies (or wedges)
/// after half a frame must fail its connection thread in bounded time —
/// TCP keepalive covers half-open *silence*, but a peer that is alive and
/// not sending would hold the thread forever without this. Generous:
/// frames are sent whole by every backend, so only a broken peer ever
/// comes close.
constexpr std::chrono::milliseconds kFrameTimeout{60'000};

/// Per-connection serving state. Listener mode gives every accepted
/// connection a fresh Worker, so a reconnecting backend always finds the
/// clean slate its re-register handshake assumes. On the binary wire
/// serve batches run on their own threads, so the map shape is guarded by
/// `mutex` and each top's batches serialize on its own `serve_mutex`
/// (drains for *different* tops run concurrently).
struct Worker {
  struct Service {
    Service(Dfsm top, const FusionServiceOptions& options)
        : service(std::move(top), options) {}
    FusionService service;
    std::mutex serve_mutex;  // one batch at a time per top
    /// Keys of the warm snapshot last shipped on this connection, which
    /// the parent holds; guarded by serve_mutex.
    std::vector<Partition> shipped_hot;
  };

  ShardServiceConfig config;
  bool configured = false;
  std::optional<ThreadPool> pool;
  /// Connection-scoped observability: every hosted service records into
  /// this context (spans tagged with its top key), and a kObs query is
  /// answered with its snapshot. Dies with the connection, like the
  /// caches — the parent is expected to pull snapshots while serving.
  obs::Obs obs;
  std::mutex mutex;  // guards config/configured/pool + the map shape
  std::unordered_map<std::string, std::unique_ptr<Service>> services;

  Service& service_of(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = services.find(key);
    if (it == services.end())
      throw ContractViolation("unknown top '" + key + "'");
    return *it->second;
  }
};

void handle_config(Worker& worker, const Frame& command) {
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (worker.configured) throw ContractViolation("duplicate 'config'");
  worker.config = command.config;
  worker.configured = true;
  if (worker.config.parallel && !worker.pool)
    worker.pool.emplace(worker.config.threads);
}

void handle_top(Worker& worker, const Frame& command) {
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (!worker.configured) throw ContractViolation("'top' before 'config'");
  if (worker.services.contains(command.key))
    throw ContractViolation("duplicate top '" + command.key + "'");
  // Standalone parse: the alphabet header reproduces the parent's
  // EventIds, making the transition table bit-exact.
  Dfsm top = from_text(command.text);
  FusionServiceOptions options;
  options.parallel = worker.config.parallel;
  options.pool = worker.pool ? &*worker.pool : nullptr;
  options.cache_config = worker.config.cache_config;
  options.obs = &worker.obs;
  options.obs_top = command.key;
  worker.services.emplace(
      command.key,
      std::make_unique<Worker::Service>(std::move(top), options));
}

/// Serves one batch and returns the reply frames (serving + responses +
/// [cachewarm] + done), untagged — the caller stamps the exchange id. When
/// the serve frame allows a snapshot, the cachewarm frame (the top's
/// hottest cache entries as the batch left them) rides along if their keys
/// differ from the last snapshot shipped on this connection — hits alone
/// can reorder which entries are hottest — so a warm steady state ships
/// none. Throws with the service queue reset, so the parent's retry cannot
/// serve duplicates.
std::vector<Frame> run_serve(Worker& worker, const Frame& command,
                             std::vector<Frame> requests) {
  Worker::Service& entry = worker.service_of(command.key);
  const std::lock_guard<std::mutex> batch(entry.serve_mutex);
  FusionService& service = entry.service;
  std::vector<std::uint64_t> tickets;
  tickets.reserve(requests.size());
  std::vector<FusionService::Response> served;
  try {
    for (Frame& frame : requests) {
      tickets.push_back(frame.request.ticket);
      service.submit(std::move(frame.request.client),
                     std::move(frame.request.request));
    }
    // The serve frame carries the parent-side span id that caused this
    // batch (0 from a pre-stitching parent); handing it to drain parents
    // this connection's gen.request spans under the originating
    // cluster.serve_top once the snapshots are merged.
    served = service.drain(command.parent);
  } catch (...) {
    // The parent still holds every request of this batch; reset the
    // service queue so a retry cannot serve duplicates.
    (void)service.discard_pending();
    throw;
  }
  if (served.size() != requests.size())
    throw ContractViolation("served count mismatch");

  // Service tickets are assigned in submission order and drain() returns
  // in ticket order, so index i maps back to wire ticket i.
  std::vector<Frame> replies;
  replies.reserve(served.size() + 3);
  Frame serving;
  serving.type = FrameType::kServing;
  serving.count = served.size();
  replies.push_back(std::move(serving));
  for (std::size_t i = 0; i < served.size(); ++i) {
    Frame reply;
    reply.type = FrameType::kResponse;
    reply.response.ticket = tickets[i];
    reply.response.client = std::move(served[i].client);
    reply.response.result = std::move(served[i].result);
    replies.push_back(std::move(reply));
  }
  if (command.warm) {
    std::vector<WarmCacheEntry> hot =
        service.cache().export_hot(kWarmSnapshotEntries);
    std::vector<Partition> keys;
    keys.reserve(hot.size());
    for (const WarmCacheEntry& warm : hot) keys.push_back(warm.key);
    if (!std::is_permutation(keys.begin(), keys.end(),
                             entry.shipped_hot.begin(),
                             entry.shipped_hot.end())) {
      entry.shipped_hot = std::move(keys);
      Frame snapshot;
      snapshot.type = FrameType::kCacheWarm;
      snapshot.key = command.key;
      snapshot.entries = std::move(hot);
      replies.push_back(std::move(snapshot));
    }
  }
  Frame done;
  done.type = FrameType::kDone;
  replies.push_back(std::move(done));
  return replies;
}

Frame make_reply(FrameType type) {
  Frame reply;
  reply.type = type;
  return reply;
}

Frame make_error(const std::string& detail) {
  Frame reply;
  reply.type = FrameType::kError;
  reply.text = detail;
  return reply;
}

/// The kObs query: answered with this connection's full observability
/// snapshot — counters, histograms, trace spans. Reading a snapshot never
/// resets anything (counters are lifetime totals; the span ring keeps its
/// window), so the parent can poll and merge freely.
Frame handle_obs(Worker& worker) {
  Frame reply;
  reply.type = FrameType::kObs;
  reply.obs = worker.obs.snapshot();
  return reply;
}

/// --trace-out sink: spans absorbed from every finished connection,
/// rewritten to the file as each connection ends, so listener mode (which
/// never exits) still leaves a loadable Chrome trace behind.
struct TraceFile {
  std::string path;
  std::mutex mutex;
  std::uint64_t connections = 0;
  std::vector<obs::TraceSpan> spans;

  void absorb(const obs::Obs& obs) {
    obs::ObsSnapshot snap = obs.snapshot();
    const std::lock_guard<std::mutex> lock(mutex);
    const std::string source = "conn" + std::to_string(++connections);
    spans.reserve(spans.size() + snap.spans.size());
    for (obs::TraceSpan& span : snap.spans) {
      if (span.source.empty()) span.source = source;
      spans.push_back(std::move(span));
    }
    write_locked();
  }

  /// Rewrites the file with whatever has been absorbed so far (possibly
  /// nothing — an empty trace is still loadable). The signal-flush path:
  /// an operator kill must leave a valid file even when no connection has
  /// finished yet.
  void rewrite() {
    const std::lock_guard<std::mutex> lock(mutex);
    write_locked();
  }

 private:
  void write_locked() {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "ffsm_shard_worker: cannot write trace to '%s'\n",
                   path.c_str());
      return;
    }
    obs::write_chrome_trace(out, spans);
  }
};

TraceFile* g_trace_file = nullptr;  // set once in main, before any thread

/// --metrics-port sink: the process-wide view behind the exposition
/// endpoint. Connections register their Obs while live and fold their
/// final counters in when they end, so a scrape sees in-flight activity
/// plus the totals of every finished connection, with
/// `worker.live_connections` as the level gauge. Span data stays out —
/// spans belong to --trace-out, not a scrape body.
struct MetricsHub {
  std::mutex mutex;
  std::vector<const obs::Obs*> live;
  obs::ObsSnapshot finished;

  void add(const obs::Obs* obs) {
    const std::lock_guard<std::mutex> lock(mutex);
    live.push_back(obs);
  }

  void remove(const obs::Obs* obs) {
    obs::ObsSnapshot snap = obs->snapshot();
    snap.spans.clear();  // bounded: counters accumulate, spans would not
    const std::lock_guard<std::mutex> lock(mutex);
    live.erase(std::remove(live.begin(), live.end(), obs), live.end());
    finished.merge(snap);
  }

  [[nodiscard]] obs::ObsSnapshot snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    obs::ObsSnapshot out = finished;
    for (const obs::Obs* obs : live) {
      obs::ObsSnapshot snap = obs->snapshot();
      snap.spans.clear();
      out.merge(snap);
    }
    out.gauges["worker.live_connections"] =
        static_cast<std::int64_t>(live.size());
    return out;
  }

  [[nodiscard]] std::size_t live_count() {
    const std::lock_guard<std::mutex> lock(mutex);
    return live.size();
  }

  /// Signal-flush helper: absorbs every live connection's spans into
  /// `trace`. The registry lock keeps each Obs alive for the duration —
  /// connections unregister before their Worker is destroyed.
  void absorb_live_into(TraceFile& trace) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const obs::Obs* obs : live) trace.absorb(*obs);
  }
};

MetricsHub* g_metrics_hub = nullptr;  // set once in main, before any thread

/// The kCacheWarm command: imports a snapshot into the service's cache
/// (answered with ok). Imports bypass admission but respect capacity, so a
/// warmed worker still serves bit-identically. Snapshots travel the other
/// way only inside serve replies (see run_serve).
Frame handle_cachewarm(Worker& worker, const Frame& command) {
  worker.service_of(command.key).service.warm_cache(command.entries);
  return make_reply(FrameType::kOk);
}

/// The text wire: one exchange at a time, every command handled inline.
/// A malformed frame gets an `error` reply with the stream still in sync
/// — the unknown-command branch of this loop is what a negotiating parent
/// relies on for its text fallback. Returns false only for a torn
/// transport.
bool run_loop_text(Worker& worker, net::LineChannel& channel,
                   WireCodec& codec) {
  try {
    for (;;) {
      std::optional<Frame> command;
      try {
        command = codec.read_command(channel, kFrameTimeout);
      } catch (const net::NetError&) {
        throw;  // transport broke: no way to report an error to this peer
      } catch (const std::exception& error) {
        // Text framing is line-delimited, so the malformed frame was
        // consumed whole and the next line starts a fresh command.
        channel.send(codec.encode(make_error(error.what())));
        continue;
      }
      if (!command) return true;  // clean EOF: the parent is done with us
      try {
        switch (command->type) {
          case FrameType::kConfig:
            handle_config(worker, *command);
            channel.send(codec.encode(make_reply(FrameType::kOk)));
            break;
          case FrameType::kTop:
            handle_top(worker, *command);
            channel.send(codec.encode(make_reply(FrameType::kOk)));
            break;
          case FrameType::kServe: {
            // Consume the whole batch off the wire before serving any of
            // it: a malformed frame then yields one error reply with the
            // stream still in sync, instead of the remaining frames being
            // misread as commands.
            std::vector<Frame> requests;
            requests.reserve(command->count);
            std::string batch_error;
            for (std::uint64_t i = 0; i < command->count; ++i) {
              std::optional<Frame> frame;
              try {
                frame = codec.read_command(channel, kFrameTimeout);
              } catch (const net::NetError&) {
                throw;
              } catch (const std::exception& error) {
                if (batch_error.empty()) batch_error = error.what();
                continue;  // frame consumed; keep draining the batch
              }
              if (!frame)
                throw net::NetError("peer closed the stream mid-batch");
              if (frame->type != FrameType::kRequest) {
                if (batch_error.empty())
                  batch_error = std::string("expected request frame, got '") +
                                frame_type_name(frame->type) + "'";
                continue;
              }
              requests.push_back(std::move(*frame));
            }
            if (!batch_error.empty()) throw ContractViolation(batch_error);
            std::string out;
            for (const Frame& reply :
                 run_serve(worker, *command, std::move(requests)))
              codec.encode(reply, out);
            channel.send(out);
            break;
          }
          case FrameType::kStatsQuery: {
            Frame reply;
            reply.type = FrameType::kStats;
            reply.stats = worker.service_of(command->key).service.stats();
            channel.send(codec.encode(reply));
            break;
          }
          case FrameType::kCacheWarm:
            channel.send(codec.encode(handle_cachewarm(worker, *command)));
            break;
          case FrameType::kObs:
            channel.send(codec.encode(handle_obs(worker)));
            break;
          case FrameType::kPing:
            channel.send(codec.encode(make_reply(FrameType::kPong)));
            break;
          case FrameType::kShutdown:
            channel.send(codec.encode(make_reply(FrameType::kBye)));
            return true;
          default:
            throw ContractViolation(
                std::string("unexpected '") + frame_type_name(command->type) +
                "' command");
        }
      } catch (const net::NetError&) {
        throw;
      } catch (const std::exception& error) {
        channel.send(codec.encode(make_error(error.what())));
      }
    }
  } catch (const std::exception&) {
    return false;  // torn connection; the peer's backend re-queues
  }
}

/// The binary wire: commands carry exchange ids, serve batches run on
/// their own threads, and every reply batch goes out as one write under a
/// send lock — drains for different tops interleave on this connection.
/// Any framing error tears the connection (length-prefixed streams cannot
/// resync); semantic errors are answered with an `error` frame on the
/// command's exchange.
bool run_loop_binary(Worker& worker, net::LineChannel& channel,
                     WireCodec& codec) {
  std::mutex send_mutex;
  // Serve threads in flight, each with a flag it raises as its last act.
  struct ServeThread {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  std::vector<ServeThread> serving;
  // Joins the threads that finished (all of them when `all`).
  const auto reap = [&serving](bool all) noexcept {
    std::erase_if(serving, [all](ServeThread& serve) {
      if (!all && !serve.done->load(std::memory_order_acquire)) return false;
      serve.thread.join();
      return true;
    });
  };
  // Encoding is const/stateless, so serve threads encode concurrently;
  // only the write itself serializes.
  const auto send_frames = [&](const std::vector<Frame>& frames) {
    std::string buffer;
    for (const Frame& frame : frames) codec.encode(frame, buffer);
    const std::lock_guard<std::mutex> lock(send_mutex);
    channel.send(buffer);
  };
  const auto send_one = [&](Frame frame, std::uint64_t exchange) {
    frame.exchange = exchange;
    std::string buffer;
    codec.encode(frame, buffer);
    const std::lock_guard<std::mutex> lock(send_mutex);
    channel.send(buffer);
  };

  bool clean = true;
  try {
    for (;;) {
      std::optional<Frame> command = codec.read_command(channel,
                                                        kFrameTimeout);
      if (!command) break;  // clean EOF: the parent is done with us
      if (command->type == FrameType::kServe) {
        // The serve command and its requests are one send buffer on the
        // parent side, so they are contiguous on the wire even while
        // other exchanges interleave between batches.
        std::vector<Frame> requests;
        requests.reserve(command->count);
        for (std::uint64_t i = 0; i < command->count; ++i) {
          std::optional<Frame> frame = codec.read_command(channel,
                                                          kFrameTimeout);
          if (!frame)
            throw net::NetError("peer closed the stream mid-batch");
          if (frame->type != FrameType::kRequest ||
              frame->exchange != command->exchange)
            throw ContractViolation("serve batch framing violated");
          requests.push_back(std::move(*frame));
        }
        // Bound the thread pile-up: finished threads are joined right
        // away, and only kMaxServeBatchesInFlight batches in flight at
        // once — more than a parent pipelines in one wave — make the
        // reader wait.
        reap(false);
        if (serving.size() >= kMaxServeBatchesInFlight) reap(true);
        auto done = std::make_unique<std::atomic<bool>>(false);
        std::atomic<bool>* finished = done.get();
        std::thread thread([&worker, &send_frames, finished,
                            command = std::move(*command),
                            requests = std::move(requests)]() mutable {
          std::vector<Frame> replies;
          try {
            replies = run_serve(worker, command, std::move(requests));
            for (Frame& reply : replies) reply.exchange = command.exchange;
          } catch (const std::exception& error) {
            replies.clear();
            Frame reply = make_error(error.what());
            reply.exchange = command.exchange;
            replies.push_back(std::move(reply));
          }
          try {
            send_frames(replies);
          } catch (...) {
            // The connection is dying; the reader loop sees it too.
          }
          finished->store(true, std::memory_order_release);
        });
        serving.push_back({std::move(thread), std::move(done)});
        continue;
      }
      try {
        switch (command->type) {
          case FrameType::kConfig:
            handle_config(worker, *command);
            send_one(make_reply(FrameType::kOk), command->exchange);
            break;
          case FrameType::kTop:
            handle_top(worker, *command);
            send_one(make_reply(FrameType::kOk), command->exchange);
            break;
          case FrameType::kStatsQuery: {
            Frame reply;
            reply.type = FrameType::kStats;
            reply.stats = worker.service_of(command->key).service.stats();
            send_one(std::move(reply), command->exchange);
            break;
          }
          case FrameType::kCacheWarm:
            send_one(handle_cachewarm(worker, *command), command->exchange);
            break;
          case FrameType::kObs:
            send_one(handle_obs(worker), command->exchange);
            break;
          case FrameType::kPing:
            send_one(make_reply(FrameType::kPong), command->exchange);
            break;
          case FrameType::kShutdown:
            reap(true);  // let in-flight batches reply before the bye
            send_one(make_reply(FrameType::kBye), command->exchange);
            return true;
          default:
            throw ContractViolation(
                std::string("unexpected '") + frame_type_name(command->type) +
                "' command");
        }
      } catch (const net::NetError&) {
        throw;
      } catch (const std::exception& error) {
        send_one(make_error(error.what()), command->exchange);
      }
    }
  } catch (const std::exception&) {
    clean = false;
    // Unblock serve threads wedged in send before joining them.
    channel.shutdown_io();
  }
  reap(true);
  return clean;
}

/// Negotiates the wire for one fresh connection (every connection starts
/// in text), then serves its exchanges until `shutdown`, clean EOF, or a
/// torn transport. Returns false only for the torn case. Never throws —
/// listener threads are detached and an escaped exception would terminate
/// the whole worker.
bool serve_connection_impl(Worker& worker, net::LineChannel& channel,
                           WireMode mode) {
  try {
    if (mode == WireMode::kText) {
      // Pinned to the pre-negotiation wire: a hello is just an unknown
      // command, answered with `error ...` — the reply an auto parent
      // treats as "this worker speaks text".
      const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
      return run_loop_text(worker, channel, *codec);
    }
    std::string first;
    if (!channel.read_line(first)) return true;  // EOF before any command
    bool offers_binary = false;
    bool offers_text = false;
    std::optional<std::string> hello_error;
    bool is_hello = false;
    try {
      is_hello = parse_client_hello(first, offers_binary, offers_text);
    } catch (const std::exception& error) {
      hello_error = error.what();  // a hello, but one we cannot speak
    }
    if (!is_hello && !hello_error && mode == WireMode::kAuto) {
      // Old-style parent: no hello, the first line is already a command.
      channel.unread(first + "\n");
      const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
      return run_loop_text(worker, channel, *codec);
    }
    if (hello_error || !offers_binary) {
      // Unsupported hello, or no binary offer: --wire=bin refuses (the
      // parent sees `error` where it awaits the hello reply and fails its
      // connection); auto falls back to text when the parent allows it.
      const bool fall_back =
          mode == WireMode::kAuto && !hello_error && offers_text;
      const std::string detail =
          hello_error ? *hello_error
          : fall_back ? std::string()
          : mode == WireMode::kBinary
              ? std::string("binary wire required (--wire=bin)")
              : std::string("no common wire encoding");
      if (!fall_back) {
        channel.send("error " + escape_token(detail) + "\n");
        return true;
      }
      channel.send(worker_hello(/*binary=*/false));
      const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
      return run_loop_text(worker, channel, *codec);
    }
    channel.send(worker_hello(/*binary=*/true));
    const std::unique_ptr<WireCodec> codec = make_wire_codec(true);
    return run_loop_binary(worker, channel, *codec);
  } catch (const std::exception&) {
    return false;  // torn connection; the peer's backend re-queues
  }
}

bool serve_connection(net::LineChannel& channel, WireMode mode) {
  Worker worker;
  if (g_metrics_hub != nullptr) g_metrics_hub->add(&worker.obs);
  const bool clean = serve_connection_impl(worker, channel, mode);
  // Flush this connection's spans whether it ended cleanly or tore —
  // a trace of the run that died is the one an operator wants most.
  if (g_trace_file != nullptr) g_trace_file->absorb(worker.obs);
  if (g_metrics_hub != nullptr) g_metrics_hub->remove(&worker.obs);
  return clean;
}

// ------------------------------------------------------- signal handling
//
// SIGTERM/SIGINT must leave loadable telemetry behind: an operator killing
// a wedged worker wants the trace of the run that wedged, not an empty
// file. The handler itself only writes one byte to a self-pipe
// (async-signal-safe); a watcher thread does the actual flushing —
// absorbing live connections' spans into --trace-out and printing the
// final exposition to stderr — then exits the process.

int g_signal_pipe[2] = {-1, -1};

void on_terminate_signal(int) {
  const char byte = 1;
  // Failure (full pipe) is fine: one pending byte already means "flush".
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

void watch_terminate_signals() {
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  if (g_trace_file != nullptr) {
    if (g_metrics_hub != nullptr) g_metrics_hub->absorb_live_into(*g_trace_file);
    g_trace_file->rewrite();  // valid even when nothing was absorbed
  }
  if (g_metrics_hub != nullptr) {
    const std::string body = obs::render_exposition(g_metrics_hub->snapshot());
    std::fprintf(stderr, "ffsm_shard_worker: final metrics on shutdown\n%s",
                 body.c_str());
  }
  // _exit, not exit: connection threads are mid-serve and their statics /
  // destructors must not run under them.
  ::_exit(0);
}

int listen_forever(std::uint16_t port, WireMode mode) {
  try {
    net::Listener listener(port);
    // The banner is the contract with ListenerWorkerProcess and with
    // scripts: the actual port (ephemeral included), then nothing else on
    // stdout.
    std::printf("listening %u\n", static_cast<unsigned>(listener.port()));
    std::fflush(stdout);
    for (;;) {
      net::Socket connection = listener.accept();
      // One thread per connection, detached: connections are independent
      // (own Worker, own pool) and die with their peer or the process.
      std::thread(
          [mode](net::Socket socket) {
            net::LineChannel channel(std::move(socket));
            (void)serve_connection(channel, mode);
          },
          std::move(connection))
          .detach();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ffsm_shard_worker: %s\n", error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A dying peer must surface as a failed write, not a SIGPIPE kill —
  // process-wide, covering the stdio bridge (a pipe/socketpair where
  // MSG_NOSIGNAL may not apply) as well as every TCP connection.
  std::signal(SIGPIPE, SIG_IGN);
  // SIGUSR1 is reserved as a no-op so tests (and operators) can
  // signal-storm a worker to exercise the EINTR retry paths; the default
  // disposition would kill it. sigaction without SA_RESTART on purpose:
  // SIG_IGN — or the BSD restart semantics of std::signal — would keep
  // syscalls from ever returning EINTR, making those paths untestable.
  struct sigaction usr1 = {};
  usr1.sa_handler = [](int) {};
  ::sigemptyset(&usr1.sa_mask);
  usr1.sa_flags = 0;
  ::sigaction(SIGUSR1, &usr1, nullptr);

  bool listen_mode = false;  // default: stdio bridge mode
  std::uint16_t listen_port = 0;
  bool metrics_mode = false;
  std::uint16_t metrics_port = 0;
  ffsm::WireMode wire = ffsm::WireMode::kAuto;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* port_text = nullptr;
    const char* metrics_text = nullptr;
    const char* wire_text = nullptr;
    if (arg == "--listen" && i + 1 < argc) {
      port_text = argv[++i];
    } else if (arg.rfind("--listen=", 0) == 0) {
      port_text = arg.c_str() + std::strlen("--listen=");
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      metrics_text = argv[++i];
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      metrics_text = arg.c_str() + std::strlen("--metrics-port=");
    } else if (arg == "--wire" && i + 1 < argc) {
      wire_text = argv[++i];
    } else if (arg.rfind("--wire=", 0) == 0) {
      wire_text = arg.c_str() + std::strlen("--wire=");
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--listen <port>] [--metrics-port <port>] "
                   "[--wire {text,bin,auto}] [--trace-out <file.json>]\n",
                   argv[0]);
      return 2;
    }
    if (port_text != nullptr) {
      // Strict parse (net::parse_port): atol would read "70o1" as 70 and
      // "abc" as 0 — silently binding the wrong port is the one failure an
      // operator cannot debug from the banner. Port 0 = ephemeral.
      if (!ffsm::net::parse_port(port_text, listen_port)) {
        std::fprintf(stderr, "ffsm_shard_worker: bad port '%s'\n", port_text);
        return 2;
      }
      listen_mode = true;
    }
    if (metrics_text != nullptr) {
      if (!ffsm::net::parse_port(metrics_text, metrics_port)) {
        std::fprintf(stderr, "ffsm_shard_worker: bad metrics port '%s'\n",
                     metrics_text);
        return 2;
      }
      metrics_mode = true;
    }
    // Same strictness for the wire: "binary" or "Text" silently meaning
    // auto would make a negotiation bug invisible.
    if (wire_text != nullptr && !ffsm::parse_wire_mode(wire_text, wire)) {
      std::fprintf(stderr, "ffsm_shard_worker: bad wire mode '%s'\n",
                   wire_text);
      return 2;
    }
  }

  TraceFile trace_file;
  if (!trace_out.empty()) {
    trace_file.path = std::move(trace_out);
    g_trace_file = &trace_file;
  }

  // The hub always exists (it is the live-connection registry the signal
  // flush walks); the exposition endpoint over it is opt-in.
  MetricsHub metrics_hub;
  g_metrics_hub = &metrics_hub;
  std::optional<ffsm::net::ExpositionServer> metrics_server;
  if (metrics_mode) {
    try {
      metrics_server.emplace(
          metrics_port, [&metrics_hub](std::string_view path) -> std::string {
            if (path == "/metrics")
              return ffsm::obs::render_exposition(metrics_hub.snapshot());
            if (path == "/health")
              return "ok ffsm_shard_worker " +
                     std::to_string(metrics_hub.live_count()) +
                     " live connection(s)\n";
            return {};  // 404
          });
    } catch (const std::exception& error) {
      std::fprintf(stderr, "ffsm_shard_worker: metrics port: %s\n",
                   error.what());
      return 2;
    }
    // stderr, not stdout: in stdio mode stdout is the wire, and in listen
    // mode the `listening <port>` banner contract allows nothing else.
    std::fprintf(stderr, "ffsm_shard_worker: metrics on port %u\n",
                 static_cast<unsigned>(metrics_server->port()));
  }

  // SIGTERM/SIGINT flush --trace-out and the final metrics before exit
  // (see watch_terminate_signals). SA_RESTART so installing the handler
  // does not perturb the wire loops' syscalls; the watcher thread, not an
  // interrupted read, carries the shutdown.
  if (::pipe(g_signal_pipe) == 0) {
    std::thread(watch_terminate_signals).detach();
    struct sigaction term = {};
    term.sa_handler = on_terminate_signal;
    ::sigemptyset(&term.sa_mask);
    term.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &term, nullptr);
    ::sigaction(SIGINT, &term, nullptr);
  } else {
    std::fprintf(stderr,
                 "ffsm_shard_worker: no signal pipe; default SIGTERM\n");
  }

  if (!listen_mode) {
    ffsm::net::LineChannel channel(STDIN_FILENO, STDOUT_FILENO);
    return serve_connection(channel, wire) ? 0 : 1;
  }
  return listen_forever(listen_port, wire);
}
