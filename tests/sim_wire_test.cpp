// Wire negotiation and exchange multiplexing: every WireMode pairing of
// parent and worker lands on the agreed encoding (or fails loudly when
// none exists), fallen-back and negotiated wires serve bit-identically to
// direct generation, concurrent per-top drains interleave as tagged
// exchanges on ONE connection, and BackendConfig validates backend shapes
// uniformly for every embedder.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fusion/generator.hpp"
#include "net/line_channel.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "sim/messages.hpp"
#include "sim/subprocess_backend.hpp"
#include "sim/tcp_backend.hpp"
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

/// Fast-failing parent options pinned to one negotiation stance.
TcpBackendOptions wire_options(std::uint16_t port, WireMode wire) {
  TcpBackendOptions options;
  options.port = port;
  options.wire = wire;
  options.config.parallel = false;
  options.connect_timeout = milliseconds(2000);
  options.connect_retry = {2, milliseconds(10), milliseconds(50), 2};
  options.serve_retry = {2, milliseconds(10), milliseconds(50), 2};
  return options;
}

/// One drain of one request through `backend`, asserting bit-identity.
void expect_serves(TcpBackend& backend, const WireFixture& fx) {
  backend.add_top("small", fx.small.top);
  backend.submit("small", "probe", {fx.small_originals, 1});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
}

TEST(WireNegotiation, AutoPeersAgreeOnBinary) {
  const WireFixture fx;
  ListenerWorkerProcess worker;  // Options() default: --wire=auto
  TcpBackend backend(wire_options(worker.port(), WireMode::kAuto));
  EXPECT_EQ(backend.wire_name(), "");  // disconnected: nothing negotiated
  expect_serves(backend, fx);
  EXPECT_EQ(backend.wire_name(), "bin");
  EXPECT_EQ(backend.connects(), 1u);
}

TEST(WireNegotiation, AutoParentFallsBackToTextAgainstTextWorker) {
  // --wire=text pins the worker to the pre-negotiation behaviour: the
  // parent's hello is answered like any unknown directive ("error
  // unknown command..."), which IS the fallback signal — the stream stays
  // in sync and the whole handshake then runs over the old text wire.
  const WireFixture fx;
  ListenerWorkerProcess worker({"", 0, WireMode::kText});
  TcpBackend backend(wire_options(worker.port(), WireMode::kAuto));
  expect_serves(backend, fx);
  EXPECT_EQ(backend.wire_name(), "text");
  EXPECT_EQ(backend.connects(), 1u);  // fallback reuses the connection
}

TEST(WireNegotiation, PinnedTextParentSpeaksTextAgainstAutoWorker) {
  // No hello at all: an auto worker must treat the connection as an old
  // parent, byte-identical to the pre-negotiation wire.
  const WireFixture fx;
  ListenerWorkerProcess worker;
  TcpBackend backend(wire_options(worker.port(), WireMode::kText));
  expect_serves(backend, fx);
  EXPECT_EQ(backend.wire_name(), "text");
}

TEST(WireNegotiation, BinaryRequiredFailsAgainstTextWorker) {
  const WireFixture fx;
  ListenerWorkerProcess worker({"", 0, WireMode::kText});
  TcpBackend backend(wire_options(worker.port(), WireMode::kBinary));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "doomed", {fx.small_originals, 1});
  // A worker that ANSWERS but cannot speak the required wire is a
  // configuration error, not an outage: no retry scan, no fallback.
  EXPECT_THROW((void)backend.drain("small"), ContractViolation);
  EXPECT_EQ(backend.pending("small"), 1u);  // still queued, never lost
  EXPECT_EQ(backend.wire_name(), "");
}

TEST(WireNegotiation, TextParentIsRejectedByBinaryOnlyWorker) {
  const WireFixture fx;
  ListenerWorkerProcess worker({"", 0, WireMode::kBinary});
  TcpBackend backend(wire_options(worker.port(), WireMode::kText));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "doomed", {fx.small_originals, 1});
  EXPECT_THROW((void)backend.drain("small"), ContractViolation);
  EXPECT_EQ(backend.pending("small"), 1u);
}

TEST(WireNegotiation, SubprocessSpawnNegotiatesBinary) {
  const WireFixture fx;
  SubprocessBackend backend;  // default options: wire=auto
  backend.add_top("small", fx.small.top);
  backend.submit("small", "probe", {fx.small_originals, 2});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 2, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(backend.wire_name(), "bin");
  backend.shutdown();
  EXPECT_EQ(backend.wire_name(), "");
}

TEST(WireNegotiation, StaleHelloVersionIsRejected) {
  // The payloads changed shape when the version went to 2 (speculation
  // stats + config lookahead), so a previous-version hello must fail the
  // handshake instead of decoding garbage mid-stream.
  bool offers_binary = false;
  bool offers_text = false;
  EXPECT_THROW(
      (void)parse_client_hello("hello 1 bin,text", offers_binary, offers_text),
      ContractViolation);
  // Version 3 (pre-obs) peers don't know the kObs frame, so they must be
  // turned away at the handshake too.
  EXPECT_THROW(
      (void)parse_client_hello("hello 3 bin,text", offers_binary, offers_text),
      ContractViolation);
  // Version 4 (pre-stitching) peers encode the serve frame without the
  // parent span id and the obs frame without gauges — same rule.
  EXPECT_THROW(
      (void)parse_client_hello("hello 4 bin,text", offers_binary, offers_text),
      ContractViolation);
  // Version 5 peers encode the serve frame without the warm flag and the
  // cachewarm frame with a count, and never expect a snapshot inside a
  // serve reply.
  EXPECT_THROW(
      (void)parse_client_hello("hello 5 bin,text", offers_binary, offers_text),
      ContractViolation);
  // Version 6 peers still carry the speculation counters in stats and
  // response frames, and speculation_lookahead and incremental in config.
  EXPECT_THROW(
      (void)parse_client_hello("hello 6 bin,text", offers_binary, offers_text),
      ContractViolation);
  // The current client/worker pair still agrees with itself.
  std::string hello = client_hello(WireMode::kAuto);
  hello.pop_back();  // read_line strips the '\n'
  EXPECT_TRUE(parse_client_hello(hello, offers_binary, offers_text));
  EXPECT_TRUE(offers_binary);
  EXPECT_TRUE(offers_text);
}

TEST(WireNegotiation, VersionMismatchNeverFallsBackToText) {
  // A worker on a different protocol version answers `error
  // ...unsupported hello version...` and closes. The parent must fail the
  // connection in EVERY mode — the text payloads differ across versions
  // too, so the auto-mode text fallback (reserved for pre-negotiation
  // workers) would just fail mid-stream instead.
  net::Listener listener(0);
  std::thread stale_worker([&listener] {
    for (int i = 0; i < 2; ++i) {
      net::LineChannel channel(listener.accept());
      std::string hello;
      EXPECT_TRUE(channel.read_line(hello));
      channel.send("error wire:%20unsupported%20hello%20version%20'2'\n");
    }
  });
  for (const WireMode mode : {WireMode::kAuto, WireMode::kBinary}) {
    net::LineChannel channel(net::Socket::connect(
        "127.0.0.1", listener.port(), milliseconds(2000)));
    EXPECT_THROW((void)negotiate_wire(channel, mode), ContractViolation);
  }
  stale_worker.join();
}

TEST(WireMultiplexing, ConcurrentTopDrainsInterleaveOnOneConnection) {
  // Two tops, drained from two threads at once: on the binary wire both
  // drains run as tagged exchanges multiplexed on the SAME connection —
  // no second connect, every response on the right exchange, everything
  // bit-identical. (Responses landing on the wrong exchange would decode
  // into the wrong drain and fail the partition comparison.)
  const WireFixture fx;
  ListenerWorkerProcess worker;
  TcpBackendOptions options = wire_options(worker.port(), WireMode::kAuto);
  options.serve_window = 2;  // several windows per drain => real overlap
  TcpBackend backend(options);
  backend.add_top("small", fx.small.top);
  backend.add_top("large", fx.large.top);
  std::vector<std::uint64_t> small_tickets, large_tickets;
  for (int c = 0; c < 5; ++c) {
    const auto f = static_cast<std::uint32_t>(1 + c % 3);
    small_tickets.push_back(
        backend.submit("small", "s" + std::to_string(c),
                       {fx.small_originals, f, DescentPolicy::kMostBlocks}));
    large_tickets.push_back(
        backend.submit("large", "l" + std::to_string(c),
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
  EXPECT_EQ(backend.wire_name(), "bin");
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

TEST(WireMultiplexing, ClusterDrainInterleavesTopsOfOneShard) {
  // The end-to-end path the redesign exists for: a one-shard cluster
  // whose two tops share one worker connection. The cluster's parallel
  // per-top drain fans both out at once; the binary wire interleaves
  // them; results must match the in-process cluster response for
  // response.
  const WireFixture fx;
  ListenerWorkerProcess worker;
  ThreadPool pool(2);

  FusionClusterOptions reference_options;
  reference_options.shards = 1;
  FusionCluster reference(reference_options);

  BackendConfig config;
  config.kind = BackendConfig::Kind::kTcp;
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
      c->submit("small", "s" + std::to_string(i), {fx.small_originals, 1});
      c->submit("large", "l" + std::to_string(i),
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

  config.kind = BackendConfig::Kind::kTcp;
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}, {"localhost", 2}};
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}};
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));
  config.endpoints = {{"localhost", 0}};  // a zero port is always a typo
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);

  config.kind = BackendConfig::Kind::kReplica;
  config.endpoints.clear();
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}, {"localhost", 2}};
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));
}

TEST(BackendConfigFactory, KindNamesRoundTripStrictly) {
  for (const auto kind :
       {BackendConfig::Kind::kInProcess, BackendConfig::Kind::kSubprocess,
        BackendConfig::Kind::kTcp, BackendConfig::Kind::kReplica}) {
    BackendConfig::Kind back = BackendConfig::Kind::kInProcess;
    EXPECT_TRUE(parse_backend_kind(backend_kind_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  BackendConfig::Kind out = BackendConfig::Kind::kTcp;
  EXPECT_FALSE(parse_backend_kind("", out));
  EXPECT_FALSE(parse_backend_kind("TCP", out));
  EXPECT_FALSE(parse_backend_kind("replica", out));
  EXPECT_EQ(out, BackendConfig::Kind::kTcp);  // untouched on failure

  WireMode wire = WireMode::kText;
  EXPECT_TRUE(parse_wire_mode("bin", wire));
  EXPECT_EQ(wire, WireMode::kBinary);
  EXPECT_FALSE(parse_wire_mode("binary", wire));
  EXPECT_FALSE(parse_wire_mode("Bin", wire));
  EXPECT_EQ(wire, WireMode::kBinary);
}

}  // namespace
}  // namespace ffsm
