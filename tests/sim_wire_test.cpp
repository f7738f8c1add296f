// The wire hello and exchange multiplexing: a parent and a worker agree on
// the binary framing and serve bit-identically to direct generation, the
// health probe's bare ping is answered, every refusal — an unknown opening
// line, a stale or text-only hello, a worker that predates binary framing
// — is loud and loses nothing, concurrent per-top drains interleave as
// tagged exchanges on ONE connection (to a replica or to a spawned
// worker) served by at most one worker thread per concurrent drain, and
// BackendConfig validates backend shapes uniformly for every embedder.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fusion/generator.hpp"
#include "net/health.hpp"
#include "net/line_channel.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "sim/messages.hpp"
#include "sim/wire_backend.hpp"
#include "oracle.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using ffsm::testing::oracle_generate_fusion;
using std::chrono::milliseconds;

/// The standard two-top fixture plus the reference results any wire must
/// reproduce bit-identically.
struct WireFixture {
  CrossProduct small = counter_pair_product(4);
  CrossProduct large = counter_pair_product(6);
  std::vector<Partition> small_originals = component_partitions(small);
  std::vector<Partition> large_originals = component_partitions(large);

  FusionResult direct(bool small_top, std::uint32_t f,
                      DescentPolicy policy) const {
    GenerateOptions options;
    options.f = f;
    options.policy = policy;
    return oracle_generate_fusion(small_top ? small.top : large.top,
                                  small_top ? small_originals : large_originals,
                                  options);
  }
};

/// Fast-failing parent config against one worker endpoint.
BackendConfig wire_config(std::uint16_t port) {
  BackendConfig config;
  config.kind = BackendConfig::Kind::kReplica;
  config.endpoints = {{"127.0.0.1", port}};
  config.service.parallel = false;
  config.connect_retry = {2, milliseconds(10), milliseconds(50), 2};
  config.serve_retry = {2, milliseconds(10), milliseconds(50), 2};
  return config;
}

TEST(WireNegotiation, PeersAgreeOnBinary) {
  const WireFixture fx;
  ListenerWorkerProcess worker;
  WireBackend backend(wire_config(worker.port()));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "probe", {fx.small_originals, 1});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(backend.connects(), 1u);
}

TEST(WireNegotiation, HealthProbeReadsAListenerWorkerUp) {
  // The HealthMonitor knows no frames: its bare `ping` line is the
  // worker's one non-hello opening it answers.
  ListenerWorkerProcess worker;
  net::HealthMonitorOptions options;
  options.start_thread = false;
  options.probe_timeout = milliseconds(2000);
  net::HealthMonitor monitor(options);
  const net::Endpoint endpoint{"127.0.0.1", worker.port()};
  monitor.watch(endpoint);
  monitor.probe_now();
  EXPECT_EQ(monitor.health(endpoint).state, net::ProbeState::kUp);
  EXPECT_EQ(monitor.health(endpoint).probes_failed, 0u);
}

TEST(WireNegotiation, UnknownOpeningLineGetsOneErrorThenEof) {
  ListenerWorkerProcess worker;
  net::LineChannel channel(
      net::Socket::connect("127.0.0.1", worker.port(), milliseconds(2000)));
  channel.send("stats small\n");  // a pre-hello command: no longer spoken
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line.rfind("error ", 0), 0u) << line;
  EXPECT_FALSE(channel.read_line(line)) << "worker kept talking: " << line;
}

TEST(WireNegotiation, HelloAcceptsOnlyTheCurrentVersionOfferingBin) {
  // Every earlier version changed a payload's shape, so its hello must
  // fail the handshake instead of decoding garbage mid-stream.
  for (int version = 1; version <= 8; ++version) {
    const std::string hello =
        std::string("hello ").append(std::to_string(version)) + " bin,text";
    EXPECT_THROW((void)parse_client_hello(hello), ContractViolation) << hello;
  }
  // The current version without a binary offer has nothing in common.
  EXPECT_THROW((void)parse_client_hello("hello 9 text"), ContractViolation);
  EXPECT_TRUE(parse_client_hello("hello 9 bin,text"));
  EXPECT_TRUE(parse_client_hello("hello 9 future,bin"));
  std::string hello = wire_hello();
  hello.pop_back();  // read_line strips the '\n'
  EXPECT_TRUE(parse_client_hello(hello));
  EXPECT_FALSE(parse_client_hello("ping"));
}

/// A stand-in for a worker that cannot speak the binary framing: it
/// answers each connection's hello with `error unknown%20command...` — what
/// a worker from before the text wire's removal said under `--wire=text` —
/// and closes.
class RefusingWorker {
 public:
  RefusingWorker() : thread_([this] { run(); }) {}
  ~RefusingWorker() {
    // A `stop` line ends the accept loop.
    net::Socket stop =
        net::Socket::connect("127.0.0.1", port(), milliseconds(2000));
    stop.send_all("stop\n");
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

 private:
  void run() {
    for (;;) {
      net::LineChannel channel(listener_.accept());
      std::string hello;
      if (!channel.read_line(hello) || hello == "stop") return;
      channel.send("error unknown%20command%20'hello'\n");
    }
  }

  net::Listener listener_{0};
  std::thread thread_;
};

TEST(WireNegotiation, RefusedHelloFailsTheConnectionLoudly) {
  RefusingWorker worker;
  net::LineChannel channel(
      net::Socket::connect("127.0.0.1", worker.port(), milliseconds(2000)));
  try {
    negotiate_wire(channel);
    FAIL() << "a refused hello must throw";
  } catch (const net::NetError& error) {
    FAIL() << "a refusal is not an outage: " << error.what();
  } catch (const ContractViolation&) {
  }
}

TEST(WireNegotiation, WorkerWithoutBinaryFramingFailsTheDrainKeepingWork) {
  // A worker that ANSWERS but cannot speak the wire is a configuration
  // error, not an outage: no retry scan, no fallback, nothing lost.
  const WireFixture fx;
  RefusingWorker worker;
  WireBackend backend(wire_config(worker.port()));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "doomed", {fx.small_originals, 1});
  try {
    (void)backend.drain("small");
    FAIL() << "a refused hello must fail the drain";
  } catch (const net::NetError& error) {
    FAIL() << "a refusal is not an outage: " << error.what();
  } catch (const ContractViolation&) {
  }
  EXPECT_EQ(backend.pending("small"), 1u);  // still queued, never lost
  EXPECT_EQ(backend.connects(), 0u);
}

/// A subprocess shard's config: one private worker spawned on connect.
BackendConfig spawn_config() {
  BackendConfig config;
  config.kind = BackendConfig::Kind::kSubprocess;
  config.service.parallel = false;
  return config;
}

TEST(WireNegotiation, SubprocessSpawnNegotiatesBinary) {
  const WireFixture fx;
  WireBackend backend(spawn_config());
  backend.add_top("small", fx.small.top);
  backend.submit("small", "probe", {fx.small_originals, 2});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 2, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(backend.connects(), 1u);
  backend.shutdown();
}

/// Serve threads the worker behind `backend` has started on its live
/// connection, read from the worker's kObs snapshot.
std::uint64_t serve_threads_started(WireBackend& backend) {
  const obs::ObsSnapshot snapshot = backend.obs_snapshot();
  const auto it = snapshot.counters.find("worker.serve_threads_started");
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(WireMultiplexing, SequentialDrainsReuseOneServeThread) {
  // Each drain waits for its reply before the next is sent, and a serve
  // thread counts itself idle before it replies, so every batch after the
  // first finds that thread idle: 50 drains, one thread.
  const WireFixture fx;
  WireBackend backend(spawn_config());
  backend.add_top("small", fx.small.top);
  const FusionResult expected =
      fx.direct(true, 2, DescentPolicy::kFewestBlocks);
  for (int i = 0; i < 50; ++i) {
    backend.submit("small", std::string("c").append(std::to_string(i)),
                   {fx.small_originals, 2});
    const auto responses = backend.drain("small");
    ASSERT_EQ(responses.size(), 1u) << i;
    ASSERT_EQ(responses[0].result.partitions, expected.partitions) << i;
  }
  EXPECT_EQ(backend.connects(), 1u);
  EXPECT_EQ(serve_threads_started(backend), 1u);
  backend.shutdown();
}

/// Two tops, drained from two threads at once through a backend built from
/// `config`: both drains run as tagged exchanges multiplexed on the SAME
/// connection — no second connect, every response on the right exchange,
/// everything bit-identical. (Responses landing on the wrong exchange
/// would decode into the wrong drain and fail the partition comparison.)
void expect_concurrent_drains_share_one_connection(const WireFixture& fx,
                                                   BackendConfig config) {
  config.serve_window = 2;  // several windows per drain => real overlap
  WireBackend backend(config);
  backend.add_top("small", fx.small.top);
  backend.add_top("large", fx.large.top);
  std::vector<std::uint64_t> small_tickets, large_tickets;
  for (int c = 0; c < 5; ++c) {
    const auto f = static_cast<std::uint32_t>(1 + c % 3);
    small_tickets.push_back(
        backend.submit("small", std::string("s").append(std::to_string(c)),
                       {fx.small_originals, f, DescentPolicy::kMostBlocks}));
    large_tickets.push_back(
        backend.submit("large", std::string("l").append(std::to_string(c)),
                       {fx.large_originals, f}));
  }

  std::vector<FusionResponse> small_responses, large_responses;
  std::exception_ptr small_error, large_error;
  std::thread small_drain([&] {
    try {
      small_responses = backend.drain("small");
    } catch (...) {
      small_error = std::current_exception();
    }
  });
  std::thread large_drain([&] {
    try {
      large_responses = backend.drain("large");
    } catch (...) {
      large_error = std::current_exception();
    }
  });
  small_drain.join();
  large_drain.join();
  if (small_error) std::rethrow_exception(small_error);
  if (large_error) std::rethrow_exception(large_error);

  EXPECT_EQ(backend.connects(), 1u) << "multiplexed drains must share the "
                                       "one connection";
  // At most one batch per drain is ever unanswered, and a serve thread
  // counts itself idle before its reply leaves: two threads serve both.
  EXPECT_LE(serve_threads_started(backend), 2u);
  ASSERT_EQ(small_responses.size(), small_tickets.size());
  ASSERT_EQ(large_responses.size(), large_tickets.size());
  for (std::size_t i = 0; i < small_responses.size(); ++i) {
    EXPECT_EQ(small_responses[i].ticket, small_tickets[i]) << i;
    const auto f = static_cast<std::uint32_t>(1 + i % 3);
    EXPECT_EQ(small_responses[i].result.partitions,
              fx.direct(true, f, DescentPolicy::kMostBlocks).partitions)
        << i;
  }
  for (std::size_t i = 0; i < large_responses.size(); ++i) {
    EXPECT_EQ(large_responses[i].ticket, large_tickets[i]) << i;
    const auto f = static_cast<std::uint32_t>(1 + i % 3);
    EXPECT_EQ(large_responses[i].result.partitions,
              fx.direct(false, f, DescentPolicy::kFewestBlocks).partitions)
        << i;
  }
}

TEST(WireMultiplexing, ConcurrentTopDrainsInterleaveOnOneConnection) {
  const WireFixture fx;
  ListenerWorkerProcess worker;
  expect_concurrent_drains_share_one_connection(fx,
                                                wire_config(worker.port()));
}

TEST(WireMultiplexing, ConcurrentTopDrainsInterleaveOnOneSpawnedWorker) {
  // The same on a subprocess shard: its drains share the one spawned
  // worker.
  const WireFixture fx;
  expect_concurrent_drains_share_one_connection(fx, spawn_config());
}

TEST(WireMultiplexing, ClusterDrainInterleavesTopsOfOneShard) {
  // The end-to-end path the redesign exists for: a one-shard cluster
  // whose two tops share one worker connection. The cluster's parallel
  // per-top drain fans both out at once; the wire interleaves them;
  // results must match the in-process cluster response for response.
  const WireFixture fx;
  ListenerWorkerProcess worker;
  ThreadPool pool(2);

  FusionClusterOptions reference_options;
  reference_options.shards = 1;
  FusionCluster reference(reference_options);

  BackendConfig config;
  config.kind = BackendConfig::Kind::kReplica;
  config.endpoints = {{"127.0.0.1", worker.port()}};
  FusionClusterOptions options;
  options.shards = 1;
  options.pool = &pool;
  options.backend_factory = make_backend_factory(config);
  FusionCluster cluster(options);

  for (FusionCluster* c : {&reference, &cluster}) {
    c->add_top("small", fx.small.top);
    c->add_top("large", fx.large.top);
    for (int i = 0; i < 3; ++i) {
      c->submit("small", std::string("s").append(std::to_string(i)),
                {fx.small_originals, 1});
      c->submit("large", std::string("l").append(std::to_string(i)),
                {fx.large_originals, 2, DescentPolicy::kMostBlocks});
    }
  }
  const auto expected = reference.drain();
  const auto actual = cluster.drain();
  EXPECT_TRUE(actual.failed_tops.empty());
  ASSERT_EQ(actual.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < expected.responses.size(); ++i) {
    EXPECT_EQ(actual.responses[i].ticket, expected.responses[i].ticket);
    EXPECT_EQ(actual.responses[i].top, expected.responses[i].top);
    EXPECT_EQ(actual.responses[i].result.partitions,
              expected.responses[i].result.partitions)
        << i;
  }
  EXPECT_EQ(cluster.stats().restarts, 0u);  // one connection throughout
}

TEST(BackendConfigFactory, ValidatesBackendShapes) {
  BackendConfig config;  // kInProcess: the cluster's built-in default
  EXPECT_FALSE(static_cast<bool>(make_backend_factory(config)));

  config.endpoints = {{"localhost", 1}};
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);

  config.kind = BackendConfig::Kind::kSubprocess;
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints.clear();
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));

  config.kind = BackendConfig::Kind::kReplica;
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}};
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));
  config.endpoints = {{"localhost", 1}, {"localhost", 2}};
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));
  config.endpoints = {{"localhost", 0}};  // a zero port is always a typo
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
}

TEST(BackendConfigFactory, KindNamesRoundTripStrictly) {
  for (const auto kind :
       {BackendConfig::Kind::kInProcess, BackendConfig::Kind::kSubprocess,
        BackendConfig::Kind::kReplica}) {
    BackendConfig::Kind back = BackendConfig::Kind::kInProcess;
    EXPECT_TRUE(parse_backend_kind(backend_kind_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  BackendConfig::Kind out = BackendConfig::Kind::kReplica;
  EXPECT_FALSE(parse_backend_kind("", out));
  EXPECT_FALSE(parse_backend_kind("tcp", out));  // one-endpoint replica-tcp
  EXPECT_FALSE(parse_backend_kind("TCP", out));
  EXPECT_FALSE(parse_backend_kind("replica", out));
  EXPECT_EQ(out, BackendConfig::Kind::kReplica);  // untouched on failure
}

}  // namespace
}  // namespace ffsm
