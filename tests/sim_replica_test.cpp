// A replica set: a shard served through one survives the loss
// of its primary worker without losing (or re-queueing) a single request —
// the batch drains through the secondary bit-identically to in-process
// serving; with every replica dead requests stay queued until one
// revives; a revived higher-priority replica gets the traffic back
// (fail-back) without dropping in-flight work; and the failover handshake
// replays the warm cache snapshot so the secondary's first drain serves
// from the dead primary's hot set.
#include "sim/wire_backend.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "fusion/generator.hpp"
#include "net/listener.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using std::chrono::milliseconds;

/// One top plus an InProcessBackend oracle: every replica-set response is
/// hard-asserted bit-identical to what in-process serving produces for
/// the same request stream.
struct ReplicaFixture {
  CrossProduct product = counter_pair_product(4);
  std::vector<Partition> originals = component_partitions(product);
  InProcessBackend oracle{[] {
    FusionServiceOptions options;
    options.parallel = false;
    return options;
  }()};

  ReplicaFixture() { oracle.add_top("small", product.top); }

  FusionRequest request(std::uint32_t f,
                        DescentPolicy policy = DescentPolicy::kFewestBlocks)
      const {
    return {originals, f, policy};
  }

  /// Submits to the oracle and both-drains, returning just the fusions.
  std::vector<std::vector<Partition>> expect(
      const std::vector<FusionRequest>& requests) {
    for (const FusionRequest& r : requests)
      oracle.submit("small", "oracle", r);
    std::vector<std::vector<Partition>> out;
    for (FusionResponse& response : oracle.drain("small"))
      out.push_back(std::move(response.result.partitions));
    return out;
  }
};

/// Fast-failing config for tests: bounded waits, lean serial workers.
BackendConfig fast_config(std::vector<std::uint16_t> ports) {
  BackendConfig config;
  config.kind = BackendConfig::Kind::kReplica;
  for (const std::uint16_t port : ports)
    config.endpoints.push_back({"127.0.0.1", port});
  config.service.parallel = false;
  config.connect_retry = {2, milliseconds(10), milliseconds(50), 2};
  config.serve_retry = {2, milliseconds(10), milliseconds(50), 2};
  return config;
}

/// A manual-drive monitor (tests call probe_now()) with instant verdicts.
std::shared_ptr<net::HealthMonitor> manual_monitor() {
  net::HealthMonitorOptions options;
  options.start_thread = false;
  options.probe_timeout = milliseconds(2000);
  options.down_after = 1;
  return std::make_shared<net::HealthMonitor>(options);
}

/// Lifetime value of counter `name` in `obs` (0 when never counted).
std::uint64_t counter(const obs::Obs& obs, const std::string& name) {
  const obs::ObsSnapshot snapshot = obs.snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(ReplicaBackend, PipelinesTheTopsOfARoundWindowByWindow) {
  ReplicaFixture fx;
  ListenerWorkerProcess worker;
  obs::Obs obs;
  BackendConfig config = fast_config({worker.port()});
  config.obs = &obs;
  config.serve_window = 2;  // three requests on "small": two windows
  WireBackend backend(config);
  backend.add_top("small", fx.product.top);
  backend.add_top("twin", fx.product.top);

  const std::vector<FusionRequest> asks = {
      fx.request(1), fx.request(2, DescentPolicy::kMostBlocks),
      fx.request(1, DescentPolicy::kMostBlocks)};
  for (const FusionRequest& ask : asks) backend.submit("small", "s", ask);
  backend.submit("twin", "t", fx.request(2, DescentPolicy::kMostBlocks));
  std::vector<ShardBackend::TopDrain> tops(2);
  tops[0].key = "small";
  tops[1].key = "twin";
  backend.drain_tops(tops);
  ASSERT_FALSE(tops[0].error);
  ASSERT_FALSE(tops[1].error);
  const auto expected = fx.expect(asks);
  ASSERT_EQ(tops[0].responses.size(), 3u);
  for (std::size_t i = 0; i < asks.size(); ++i)
    EXPECT_EQ(tops[0].responses[i].result.partitions, expected[i]) << i;
  ASSERT_EQ(tops[1].responses.size(), 1u);
  EXPECT_EQ(tops[1].responses[0].result.partitions, expected[1]);
  EXPECT_EQ(backend.pending("small"), 0u);
  EXPECT_EQ(backend.pending("twin"), 0u);

  // Wave one carries both tops' first windows before any reply is
  // awaited, wave two the rest of "small". One snapshot per top: only the
  // window that completes a batch may bring one.
  const obs::HistogramSnapshot depth =
      obs.snapshot().histograms.at("wire.pipeline_depth");
  EXPECT_EQ(depth.count(), 2u);
  EXPECT_EQ(depth.sum, 3u);
  EXPECT_EQ(counter(obs, "wire.warm_snapshot"), 2u);

  // A warm round hits every cover and leaves the hot keys as they were:
  // no snapshot crosses the wire.
  backend.submit("small", "s", fx.request(1));
  backend.submit("twin", "t", fx.request(2, DescentPolicy::kMostBlocks));
  std::vector<ShardBackend::TopDrain> again(2);
  again[0].key = "small";
  again[1].key = "twin";
  backend.drain_tops(again);
  ASSERT_EQ(again[0].responses.size(), 1u);
  ASSERT_EQ(again[1].responses.size(), 1u);
  EXPECT_EQ(again[0].responses[0].result.stats.closures_evaluated, 0u);
  EXPECT_EQ(counter(obs, "wire.warm_snapshot"), 2u);
}

TEST(ReplicaBackend, PrimaryKillMidStreamFailsOverLosslessly) {
  ReplicaFixture fx;
  auto primary = std::make_unique<ListenerWorkerProcess>();
  ListenerWorkerProcess secondary;
  WireBackend backend(fast_config({primary->port(), secondary.port()}));
  backend.add_top("small", fx.product.top);

  // Warm exchange pins the primary (priority order, both replicas alive).
  backend.submit("small", "warm", fx.request(1));
  const auto warm = backend.drain("small");
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(backend.current_replica(), 0u);
  EXPECT_EQ(backend.connects(), 1u);
  EXPECT_EQ(backend.failovers(), 0u);

  // SIGKILL the primary with the connection up, a batch queued behind it:
  // the serve exchange dies mid-flight and the in-flight re-submit must
  // carry the whole batch to the secondary — same drain, no re-queue.
  const std::vector<FusionRequest> asks = {
      fx.request(1), fx.request(2, DescentPolicy::kMostBlocks),
      fx.request(3)};
  std::vector<std::uint64_t> tickets;
  for (std::size_t i = 0; i < asks.size(); ++i)
    tickets.push_back(backend.submit(
        "small", std::string("c").append(std::to_string(i)), asks[i]));
  primary->kill();

  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), asks.size());
  EXPECT_EQ(backend.pending("small"), 0u);
  EXPECT_EQ(backend.current_replica(), 1u);
  EXPECT_EQ(backend.connects(), 2u);
  EXPECT_EQ(backend.failovers(), 1u);

  // Bit-identical to in-process serving of the same stream (the warm
  // request first, so oracle ticket order matches).
  const auto expected = fx.expect({fx.request(1), asks[0], asks[1], asks[2]});
  EXPECT_EQ(warm[0].result.partitions, expected[0]);
  for (std::size_t i = 0; i < asks.size(); ++i) {
    EXPECT_EQ(responses[i].ticket, tickets[i]) << i;
    EXPECT_EQ(responses[i].result.partitions, expected[i + 1]) << i;
  }

  // The uniform stats surface shows the failover; the secondary's
  // per-connection counters cover exactly the failed-over batch.
  const ServiceStats stats = backend.stats("small");
  EXPECT_EQ(stats.requests_served, asks.size());
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.health_probes_failed, 0u);  // no monitor attached
}

TEST(ReplicaBackend, AllReplicasDeadKeepsRequestsQueuedUntilOneRevives) {
  ReplicaFixture fx;
  auto primary = std::make_unique<ListenerWorkerProcess>();
  auto secondary = std::make_unique<ListenerWorkerProcess>();
  const std::uint16_t secondary_port = secondary->port();
  WireBackend backend(fast_config({primary->port(), secondary_port}));
  backend.add_top("small", fx.product.top);
  primary->kill();
  secondary->kill();

  backend.submit("small", "patient", fx.request(2));
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW((void)backend.drain("small"), net::NetError)
        << "round " << round;
    EXPECT_EQ(backend.pending("small"), 1u);  // never lost, never served
    EXPECT_EQ(backend.connects(), 0u);
  }

  // Any replica reviving recovers the backlog — here the *secondary*, so
  // recovery does not depend on the primary coming back.
  secondary = std::make_unique<ListenerWorkerProcess>(
      ListenerWorkerProcess::Options{"", secondary_port});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].client, "patient");
  EXPECT_EQ(responses[0].result.partitions,
            fx.expect({fx.request(2)})[0]);
  EXPECT_EQ(backend.pending("small"), 0u);
  EXPECT_EQ(backend.current_replica(), 1u);
  EXPECT_EQ(backend.failovers(), 0u);  // never served anywhere else
}

TEST(ReplicaBackend, FailsBackToARevivedPrimaryWithoutDroppingWork) {
  ReplicaFixture fx;
  auto monitor = manual_monitor();
  auto primary = std::make_unique<ListenerWorkerProcess>();
  ListenerWorkerProcess secondary;
  const std::uint16_t primary_port = primary->port();
  BackendConfig config = fast_config({primary_port, secondary.port()});
  config.monitor = monitor;
  WireBackend backend(config);
  backend.add_top("small", fx.product.top);
  const net::Endpoint primary_endpoint{"127.0.0.1", primary_port};

  backend.submit("small", "warm", fx.request(1));
  const auto warm = backend.drain("small");
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_EQ(backend.current_replica(), 0u);

  // Primary dies and the monitor notices: the next drain's connect scan
  // starts at the secondary instead of burning a timeout on the corpse.
  primary->kill();
  monitor->probe_now();
  EXPECT_EQ(monitor->health(primary_endpoint).state, net::ProbeState::kDown);
  backend.submit("small", "over", fx.request(2));
  const auto over = backend.drain("small");
  ASSERT_EQ(over.size(), 1u);
  EXPECT_EQ(backend.current_replica(), 1u);
  EXPECT_EQ(backend.failovers(), 1u);

  // Primary revives on its old port and probes healthy again. In-flight
  // work submitted before the fail-back must all be served by the drain
  // that moves the connection — fail-back happens between exchanges, so
  // nothing is dropped or re-queued.
  primary = std::make_unique<ListenerWorkerProcess>(
      ListenerWorkerProcess::Options{"", primary_port});
  monitor->probe_now();
  EXPECT_EQ(monitor->health(primary_endpoint).state, net::ProbeState::kUp);
  backend.submit("small", "back0", fx.request(1));
  backend.submit("small", "back1", fx.request(3, DescentPolicy::kMostBlocks));
  const auto back = backend.drain("small");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(backend.pending("small"), 0u);
  EXPECT_EQ(backend.current_replica(), 0u);
  EXPECT_EQ(backend.failovers(), 2u);  // over and back

  const auto expected = fx.expect(
      {fx.request(1), fx.request(2), fx.request(1),
       fx.request(3, DescentPolicy::kMostBlocks)});
  EXPECT_EQ(warm[0].result.partitions, expected[0]);
  EXPECT_EQ(over[0].result.partitions, expected[1]);
  EXPECT_EQ(back[0].result.partitions, expected[2]);
  EXPECT_EQ(back[1].result.partitions, expected[3]);

  // The dead-primary window is on the stats surface.
  EXPECT_GE(backend.stats("small").health_probes_failed, 1u);
}

TEST(ReplicaCluster, DrainSurvivesPrimaryKillWithoutARequeue) {
  // The improvement over a one-endpoint seed list in one assert: the same
  // mid-serve SIGKILL that costs a lone replica a failed drain + re-queue
  // round (sim_tcp_test) completes in ONE drain through the secondary.
  ReplicaFixture fx;
  auto primary = std::make_unique<ListenerWorkerProcess>();
  ListenerWorkerProcess secondary;

  WireBackend* raw_backend = nullptr;
  FusionClusterOptions cluster_options;
  cluster_options.shards = 1;
  cluster_options.backend_factory = [&](std::size_t) {
    auto backend = std::make_unique<WireBackend>(
        fast_config({primary->port(), secondary.port()}));
    raw_backend = backend.get();
    return backend;
  };
  FusionCluster cluster(cluster_options);
  cluster.add_top("small", fx.product.top);

  cluster.submit("small", "warm", fx.request(1));
  const auto first = cluster.drain();
  ASSERT_EQ(first.responses.size(), 1u);
  ASSERT_TRUE(raw_backend->connected());

  primary->kill();
  cluster.submit("small", "after-kill", fx.request(2));
  const auto report = cluster.drain();
  EXPECT_TRUE(report.failed_tops.empty());
  EXPECT_EQ(report.requeued, 0u);
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].client, "after-kill");
  EXPECT_EQ(report.responses[0].result.partitions,
            fx.expect({fx.request(1), fx.request(2)})[1]);
  EXPECT_EQ(cluster.pending(), 0u);

  // Failover counters flow through the cluster's uniform stats surface.
  EXPECT_EQ(cluster.top_stats("small").failovers, 1u);
  const auto stats = cluster.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.requests_requeued, 0u);
}

TEST(ReplicaBackend, FailoverReplaysWarmCacheToTheSecondary) {
  ReplicaFixture fx;
  auto primary = std::make_unique<ListenerWorkerProcess>();
  ListenerWorkerProcess secondary;
  WireBackend backend(fast_config({primary->port(), secondary.port()}));
  backend.add_top("small", fx.product.top);

  // First drain on the primary; afterwards the backend captures the
  // primary's hottest cache entries as the top's warm snapshot.
  const std::vector<FusionRequest> asks = {
      fx.request(1), fx.request(2),
      fx.request(3, DescentPolicy::kMostBlocks)};
  for (std::size_t i = 0; i < asks.size(); ++i)
    backend.submit("small", std::string("warm").append(std::to_string(i)),
                   asks[i]);
  const auto warm = backend.drain("small");
  ASSERT_EQ(warm.size(), asks.size());
  ASSERT_EQ(backend.current_replica(), 0u);

  // Failover: the reconnect handshake replays the snapshot into the
  // secondary, so its FIRST drain serves the repeated stream from the
  // predecessor's hot set — every descent partition was already resident,
  // where a cold failover target would re-enter them all as cold misses.
  primary->kill();
  for (std::size_t i = 0; i < asks.size(); ++i)
    backend.submit("small", std::string("over").append(std::to_string(i)),
                   asks[i]);
  const auto over = backend.drain("small");
  ASSERT_EQ(over.size(), asks.size());
  EXPECT_EQ(backend.current_replica(), 1u);
  EXPECT_EQ(backend.failovers(), 1u);
  const ServiceStats stats = backend.stats("small");
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_cold_misses, 0u);

  // The handoff must never change results: both drains bit-identical to
  // serving the same stream cold in-process.
  const auto expected = fx.expect(
      {asks[0], asks[1], asks[2], asks[0], asks[1], asks[2]});
  for (std::size_t i = 0; i < asks.size(); ++i) {
    EXPECT_EQ(warm[i].result.partitions, expected[i]) << i;
    EXPECT_EQ(over[i].result.partitions, expected[i + asks.size()]) << i;
  }
}

TEST(ReplicaBackend, RejectsAnEmptyOrUnconnectableSeedList) {
  BackendConfig empty;
  empty.kind = BackendConfig::Kind::kReplica;
  EXPECT_THROW(WireBackend{empty}, ContractViolation);
  BackendConfig zero_port = empty;
  zero_port.endpoints = {{"127.0.0.1", 0}};
  EXPECT_THROW(WireBackend{std::move(zero_port)}, ContractViolation);
}

}  // namespace
}  // namespace ffsm
