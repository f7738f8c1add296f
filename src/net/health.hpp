// Liveness tracking for worker endpoints: the health-check half of
// replica-set serving.
//
// A HealthMonitor owns a background prober thread that cycles through its
// watched endpoints, runs one request/reply probe exchange against each
// (connect + "ping" + "pong" by default), and publishes per-endpoint
// state: up/down verdict, last-probe latency, and failure counters. The
// default probe is the shard worker's one non-frame line: a connection
// that opens with a bare `ping` instead of the wire hello is answered
// `pong` and closed. Probes are deadline-bounded end to end (net::Deadline
// reads), so a half-open or wedged endpoint fails its probe in
// milliseconds instead of hanging the prober on a read that TCP keepalive
// would take minutes to break.
//
// Consumers (sim::WireBackend) read the published state to order
// failover candidates and to notice a higher-priority replica coming
// back (fail-back). Verdicts are advisory by design: a stale kDown must
// only deprioritize an endpoint, never exclude it — the monitor is an
// optimization of *where to try first*, not a gate on availability.
//
// Layering: net knows transport and line reads only. The probe
// request/reply strings are options (defaulting to the worker's
// ping/pong), so this header stays ignorant of sim's wire frames.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "obs/obs.hpp"

namespace ffsm::net {

/// The published verdict for one endpoint. kUnknown = never probed.
enum class ProbeState { kUnknown, kUp, kDown };

struct EndpointHealth {
  ProbeState state = ProbeState::kUnknown;
  /// Round trip of the last successful probe (connect through reply).
  std::chrono::milliseconds latency{0};
  std::uint64_t probes = 0;
  std::uint64_t probes_failed = 0;
  /// Failures since the last success; resets to 0 on every success.
  std::uint64_t consecutive_failures = 0;
};

struct HealthMonitorOptions {
  /// Pause between background probe rounds.
  std::chrono::milliseconds probe_interval{1000};
  /// Whole-probe budget: connect, request and reply must all land within
  /// this, or the probe fails — bounded time against black holes.
  std::chrono::milliseconds probe_timeout{500};
  /// Consecutive failures before an endpoint is published kDown. 1 reacts
  /// fastest; higher values damp flapping verdicts on a lossy network
  /// (an endpoint currently kUp keeps its verdict until the threshold).
  std::size_t down_after = 2;
  /// The probe exchange, one line each way. Defaults to the shard
  /// worker's ping handler.
  std::string probe_request = "ping";
  std::string probe_reply = "pong";
  /// Spawn the background prober at construction. false = rounds run only
  /// when probe_now() is called (tests drive probing by hand).
  bool start_thread = true;
  /// Optional observability context (nullptr = uninstrumented). Every
  /// probe's round trip lands in a `health.probe.<host:port>` histogram
  /// (µs, one series per endpoint) and each failed probe emits a
  /// `health.probe_failed` instant tagged with the endpoint. Never
  /// affects verdicts.
  obs::Obs* obs = nullptr;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorOptions options = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Adds `endpoint` to the probe cycle (idempotent). Watched endpoints
  /// start kUnknown and are never removed — replica sets are fixed seed
  /// lists, and a retired endpoint merely stops being asked about.
  void watch(const Endpoint& endpoint);

  /// The published state; a never-watched endpoint reads as a default
  /// (kUnknown) — callers treat unknown and unwatched the same way.
  [[nodiscard]] EndpointHealth health(const Endpoint& endpoint) const;

  /// Sum of probes_failed across every watched endpoint.
  [[nodiscard]] std::uint64_t probes_failed_total() const;

  /// Runs one probe round synchronously in the calling thread (rounds are
  /// serialized against the background prober). Tests use this instead of
  /// sleeping through probe_interval; callers may use it to refresh a
  /// verdict before a placement decision.
  void probe_now();

  /// Stops and joins the prober (waits out an in-flight round, itself
  /// bounded by endpoints * probe_timeout). Idempotent; the destructor
  /// calls it.
  void stop();

 private:
  void run();
  void probe_round();
  /// One probe exchange; false on any failure (refused, timeout, torn
  /// stream, wrong reply). Never throws.
  [[nodiscard]] bool probe(const Endpoint& endpoint) const;

  const HealthMonitorOptions options_;
  mutable std::mutex mutex_;  // guards entries_ and stopping_
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::vector<std::pair<Endpoint, EndpointHealth>> entries_;
  std::mutex round_mutex_;  // serializes probe rounds
  std::thread prober_;
};

}  // namespace ffsm::net
