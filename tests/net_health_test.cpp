// HealthMonitor: deadline-bounded ping probes publish per-endpoint
// up/down/latency state — endpoints go down when they stop answering,
// come back up when they answer again, a silent-but-connected peer fails
// its probe in bounded time, and the background prober cycles without
// being driven by hand.
#include "net/health.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "net/line_channel.hpp"
#include "net/listener.hpp"

namespace ffsm::net {
namespace {

using std::chrono::milliseconds;

/// A minimal ping responder over raw net primitives — the stand-in for
/// ffsm_shard_worker's ping handler, so this suite stays inside the net
/// layer (the end-to-end pairing with real workers lives in
/// sim_replica_test).
class PingServer {
 public:
  explicit PingServer(std::uint16_t port = 0)
      : listener_(port), thread_([this] { run(); }) {}
  ~PingServer() { stop(); }

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] int served() const noexcept { return served_.load(); }

  /// Stops accepting and joins; probes against the port refuse from here
  /// on. Idempotent. A poison connection wakes the blocked accept() — the
  /// listener fd is closed only after the join, so the accept loop never
  /// races the close.
  void stop() {
    if (stopped_.exchange(true)) return;
    try {
      (void)Socket::connect("127.0.0.1", listener_.port(),
                            std::chrono::milliseconds(2000));
    } catch (const ContractViolation&) {
      // Accept loop already died on its own; the join below collects it.
    }
    thread_.join();
    listener_.close();
  }

 private:
  void run() {
    for (;;) {
      try {
        Socket connection = listener_.accept();
        if (stopped_.load()) return;  // the poison connection
        LineChannel channel(std::move(connection));
        std::string line;
        while (channel.read_line(line))
          if (line == "ping") {
            // Count before replying: the probe returns once the pong
            // arrives, and its caller may read served() right away.
            served_.fetch_add(1);
            channel.send("pong\n");
          }
      } catch (const ContractViolation&) {
        if (stopped_.load()) return;
        // A probe tore its connection mid-line: serve the next one.
      }
    }
  }

  Listener listener_;
  std::atomic<bool> stopped_{false};
  std::atomic<int> served_{0};
  std::thread thread_;
};

/// Manual-drive options: no background thread, tests call probe_now().
HealthMonitorOptions manual_options(std::size_t down_after = 1) {
  HealthMonitorOptions options;
  options.start_thread = false;
  options.probe_timeout = milliseconds(2000);
  options.down_after = down_after;
  return options;
}

TEST(HealthMonitor, ProbesTrackUpDownAndRecovery) {
  HealthMonitor monitor(manual_options());
  PingServer server;
  const Endpoint endpoint{"127.0.0.1", server.port()};
  monitor.watch(endpoint);
  monitor.watch(endpoint);  // idempotent

  // Watched but never probed: unknown, like an unwatched endpoint.
  EXPECT_EQ(monitor.health(endpoint).state, ProbeState::kUnknown);
  EXPECT_EQ(monitor.health(Endpoint{"127.0.0.1", 1}).state,
            ProbeState::kUnknown);

  monitor.probe_now();
  EndpointHealth health = monitor.health(endpoint);
  EXPECT_EQ(health.state, ProbeState::kUp);
  EXPECT_EQ(health.probes, 1u);
  EXPECT_EQ(health.probes_failed, 0u);
  EXPECT_GE(health.latency.count(), 0);
  EXPECT_EQ(server.served(), 1);

  // The endpoint dies: the next probe is refused and publishes kDown.
  const std::uint16_t port = server.port();
  server.stop();
  monitor.probe_now();
  health = monitor.health(endpoint);
  EXPECT_EQ(health.state, ProbeState::kDown);
  EXPECT_EQ(health.probes, 2u);
  EXPECT_EQ(health.probes_failed, 1u);
  EXPECT_EQ(health.consecutive_failures, 1u);
  EXPECT_EQ(monitor.probes_failed_total(), 1u);

  // Revived on the same port (SO_REUSEADDR): the next probe recovers it.
  PingServer revived(port);
  monitor.probe_now();
  health = monitor.health(endpoint);
  EXPECT_EQ(health.state, ProbeState::kUp);
  EXPECT_EQ(health.consecutive_failures, 0u);
  EXPECT_EQ(health.probes_failed, 1u);  // lifetime counter keeps history
}

TEST(HealthMonitor, DownAfterThresholdDampsSingleFailures) {
  HealthMonitor monitor(manual_options(/*down_after=*/2));
  std::uint16_t dead_port = 0;
  {
    Listener grabbed(0);
    dead_port = grabbed.port();
  }  // nothing listens here anymore
  const Endpoint endpoint{"127.0.0.1", dead_port};
  monitor.watch(endpoint);

  monitor.probe_now();
  EXPECT_EQ(monitor.health(endpoint).state, ProbeState::kUnknown)
      << "one failure below the threshold must not flip the verdict";
  monitor.probe_now();
  EXPECT_EQ(monitor.health(endpoint).state, ProbeState::kDown);
  EXPECT_EQ(monitor.health(endpoint).probes_failed, 2u);
}

TEST(HealthMonitor, SilentPeerFailsTheProbeInBoundedTime) {
  // A listener that accepts (kernel backlog) but never answers: without
  // the deadline read the probe would hang forever — keepalive is minutes
  // away. The probe must fail within its timeout, approximately.
  HealthMonitorOptions options = manual_options();
  options.probe_timeout = milliseconds(200);
  HealthMonitor monitor(options);
  Listener silent(0);
  const Endpoint endpoint{"127.0.0.1", silent.port()};
  monitor.watch(endpoint);

  const auto start = std::chrono::steady_clock::now();
  monitor.probe_now();
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(5000));
  EXPECT_EQ(monitor.health(endpoint).state, ProbeState::kDown);
  EXPECT_EQ(monitor.health(endpoint).probes_failed, 1u);
}

TEST(HealthMonitor, WrongReplyIsAFailedProbe) {
  // An endpoint that answers, but not with the probe reply (some other
  // service squatting the port), is as unusable as a dead one.
  HealthMonitorOptions options = manual_options();
  options.probe_reply = "something-else";
  HealthMonitor monitor(options);
  PingServer server;  // answers "pong"
  const Endpoint endpoint{"127.0.0.1", server.port()};
  monitor.watch(endpoint);
  monitor.probe_now();
  EXPECT_EQ(monitor.health(endpoint).state, ProbeState::kDown);
}

TEST(HealthMonitor, BackgroundProberCyclesWithoutManualDriving) {
  PingServer server;
  HealthMonitorOptions options;
  options.probe_interval = milliseconds(25);
  options.probe_timeout = milliseconds(2000);
  options.down_after = 1;
  HealthMonitor monitor(options);
  const Endpoint endpoint{"127.0.0.1", server.port()};
  monitor.watch(endpoint);

  // Two full rounds prove the thread cycles, not just the startup probe.
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (monitor.health(endpoint).probes < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(5));
  const EndpointHealth health = monitor.health(endpoint);
  EXPECT_GE(health.probes, 2u);
  EXPECT_EQ(health.state, ProbeState::kUp);

  monitor.stop();
  monitor.stop();  // idempotent
  const std::uint64_t probes_after_stop = monitor.health(endpoint).probes;
  std::this_thread::sleep_for(milliseconds(60));
  EXPECT_EQ(monitor.health(endpoint).probes, probes_after_stop)
      << "a stopped monitor must not keep probing";
}

}  // namespace
}  // namespace ffsm::net
