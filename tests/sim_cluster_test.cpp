// FusionCluster: per-top sharding with consistent assignment, balanced
// parallel drains, stats aggregation, and re-queue of requests from failed
// shard drains.
#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fusion/generator.hpp"
#include "oracle.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using ffsm::testing::oracle_generate_fusion;

/// Two distinct tops (16- and 36-state counter products) plus their
/// originals — the standard multi-tenant fixture.
struct ClusterFixture {
  CrossProduct small = counter_pair_product(4);
  CrossProduct large = counter_pair_product(6);
  std::vector<Partition> small_originals = component_partitions(small);
  std::vector<Partition> large_originals = component_partitions(large);

  /// Mutex-holding FusionCluster is immovable, hence the unique_ptr.
  std::unique_ptr<FusionCluster> make_cluster(
      FusionClusterOptions options = {}) const {
    auto cluster = std::make_unique<FusionCluster>(options);
    cluster->add_top("small", small.top);
    cluster->add_top("large", large.top);
    return cluster;
  }
};

TEST(FusionCluster, ShardAssignmentIsConsistent) {
  FusionClusterOptions options;
  options.shards = 3;
  const FusionCluster a(options);
  const FusionCluster b(options);
  for (const std::string key : {"small", "large", "x", "y", "z"}) {
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));  // independent instances
    EXPECT_LT(a.shard_of(key), a.shard_count());
  }
  EXPECT_EQ(a.shard_count(), 3u);
}

TEST(FusionCluster, RequiresAtLeastOneShard) {
  FusionClusterOptions options;
  options.shards = 0;
  EXPECT_THROW(FusionCluster{options}, ContractViolation);
}

TEST(FusionCluster, RejectsDuplicateAndUnknownTops) {
  const ClusterFixture fx;
  const auto cluster_ptr = fx.make_cluster();
  FusionCluster& cluster = *cluster_ptr;
  EXPECT_TRUE(cluster.has_top("small"));
  EXPECT_FALSE(cluster.has_top("nope"));
  EXPECT_EQ(cluster.top_count(), 2u);
  EXPECT_THROW(cluster.add_top("small", fx.small.top), ContractViolation);
  EXPECT_THROW(cluster.submit("nope", "c", {fx.small_originals, 1}),
               ContractViolation);
  EXPECT_THROW((void)cluster.service("nope"), ContractViolation);
}

TEST(FusionCluster, ServesMultiTopWorkloadMatchingDirectGeneration) {
  const ClusterFixture fx;
  ThreadPool pool(4);
  FusionClusterOptions options;
  options.pool = &pool;
  const auto cluster_ptr = fx.make_cluster(options);
  FusionCluster& cluster = *cluster_ptr;

  const std::uint64_t t1 =
      cluster.submit("small", "alice", {fx.small_originals, 1});
  const std::uint64_t t2 =
      cluster.submit("large", "bob", {fx.large_originals, 2});
  const std::uint64_t t3 =
      cluster.submit("small", "carol",
                     {fx.small_originals, 2, DescentPolicy::kMostBlocks});
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
  EXPECT_EQ(cluster.pending(), 3u);

  const auto report = cluster.drain();
  EXPECT_EQ(report.requeued, 0u);
  EXPECT_TRUE(report.failed_tops.empty());
  ASSERT_EQ(report.responses.size(), 3u);
  EXPECT_EQ(cluster.pending(), 0u);

  // Cluster-ticket order, with tops and clients preserved.
  EXPECT_EQ(report.responses[0].ticket, t1);
  EXPECT_EQ(report.responses[0].top, "small");
  EXPECT_EQ(report.responses[0].client, "alice");
  EXPECT_EQ(report.responses[1].ticket, t2);
  EXPECT_EQ(report.responses[1].top, "large");
  EXPECT_EQ(report.responses[2].ticket, t3);
  EXPECT_EQ(report.responses[2].client, "carol");

  // Each response is bit-identical to the oracle's Algorithm 2 run.
  const auto expect_direct = [](const Dfsm& top,
                                const std::vector<Partition>& originals,
                                std::uint32_t f, DescentPolicy policy,
                                const FusionResult& actual) {
    GenerateOptions single;
    single.f = f;
    single.policy = policy;
    const FusionResult expected =
        oracle_generate_fusion(top, originals, single);
    EXPECT_EQ(actual.partitions, expected.partitions);
  };
  expect_direct(fx.small.top, fx.small_originals, 1,
                DescentPolicy::kFewestBlocks, report.responses[0].result);
  expect_direct(fx.large.top, fx.large_originals, 2,
                DescentPolicy::kFewestBlocks, report.responses[1].result);
  expect_direct(fx.small.top, fx.small_originals, 2,
                DescentPolicy::kMostBlocks, report.responses[2].result);
}

TEST(FusionCluster, ParallelAndSerialDrainsAgree) {
  const ClusterFixture fx;

  const auto run = [&](bool parallel, ThreadPool* pool) {
    FusionClusterOptions options;
    options.parallel = parallel;
    options.pool = pool;
    const auto cluster_ptr = fx.make_cluster(options);
    FusionCluster& cluster = *cluster_ptr;
    for (int c = 0; c < 4; ++c) {
      const auto n = static_cast<std::uint32_t>(c);
      cluster.submit("small", std::string("s").append(std::to_string(c)),
                     {fx.small_originals, 1 + n % 2});
      cluster.submit("large", std::string("l").append(std::to_string(c)),
                     {fx.large_originals, 1 + n % 3});
    }
    return cluster.drain();
  };

  const auto serial = run(false, nullptr);
  ASSERT_EQ(serial.responses.size(), 8u);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel = run(true, &pool);
    ASSERT_EQ(parallel.responses.size(), serial.responses.size());
    for (std::size_t i = 0; i < serial.responses.size(); ++i) {
      EXPECT_EQ(parallel.responses[i].ticket, serial.responses[i].ticket);
      EXPECT_EQ(parallel.responses[i].top, serial.responses[i].top);
      EXPECT_EQ(parallel.responses[i].result.partitions,
                serial.responses[i].result.partitions)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(FusionCluster, RequeuesRequestsFromFailedShardDrain) {
  const ClusterFixture fx;
  const auto cluster_ptr = fx.make_cluster();
  FusionCluster& cluster = *cluster_ptr;

  // Malformed request: partitions sized for the wrong top. The cluster
  // routes without validating contents; the shard rejects it at drain
  // time and the request is re-queued, not lost.
  cluster.submit("large", "bad", {fx.small_originals, 1});
  cluster.submit("small", "good", {fx.small_originals, 1});

  const auto report = cluster.drain();
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].client, "good");
  EXPECT_EQ(report.requeued, 1u);
  ASSERT_EQ(report.failed_tops.size(), 1u);
  EXPECT_EQ(report.failed_tops[0], "large");
  EXPECT_EQ(cluster.pending(), 1u);  // the bad request is waiting again

  // It keeps failing on retry until the operator discards it.
  const auto retry = cluster.drain();
  EXPECT_TRUE(retry.responses.empty());
  EXPECT_EQ(retry.requeued, 1u);
  EXPECT_EQ(cluster.discard_pending("large"), 1u);
  EXPECT_EQ(cluster.pending(), 0u);
  const auto clean = cluster.drain();
  EXPECT_TRUE(clean.responses.empty());
  EXPECT_TRUE(clean.failed_tops.empty());

  const auto stats = cluster.stats();
  EXPECT_EQ(stats.requests_submitted, 2u);
  EXPECT_EQ(stats.requests_served, 1u);
  EXPECT_EQ(stats.requests_requeued, 2u);  // two failed rounds
  EXPECT_GE(stats.drain_failures, 2u);
}

TEST(FusionCluster, HealthyTopsKeepServingWhileOneFails) {
  const ClusterFixture fx;
  FusionClusterOptions options;
  options.shards = 1;  // force both tops onto one shard
  const auto cluster_ptr = fx.make_cluster(options);
  FusionCluster& cluster = *cluster_ptr;

  cluster.submit("large", "bad", {fx.small_originals, 1});
  cluster.submit("small", "ok1", {fx.small_originals, 1});
  cluster.submit("small", "ok2", {fx.small_originals, 2});

  const auto report = cluster.drain();
  ASSERT_EQ(report.responses.size(), 2u);
  EXPECT_EQ(report.responses[0].client, "ok1");
  EXPECT_EQ(report.responses[1].client, "ok2");
  EXPECT_EQ(report.requeued, 1u);
  EXPECT_EQ(report.failed_tops, std::vector<std::string>{"large"});
}

TEST(FusionCluster, AggregatesShardStatsIncludingCacheCounters) {
  const ClusterFixture fx;
  FusionClusterOptions options;
  options.cache_capacity = 4;
  const auto cluster_ptr = fx.make_cluster(options);
  FusionCluster& cluster = *cluster_ptr;

  for (int round = 0; round < 2; ++round) {
    cluster.submit("small", "a", {fx.small_originals, 2});
    cluster.submit("large", "b", {fx.large_originals, 2});
    (void)cluster.drain();
  }

  const auto stats = cluster.stats();
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.tops, 2u);
  EXPECT_EQ(stats.requests_submitted, 4u);
  EXPECT_EQ(stats.requests_served, 4u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.shard_batches_served, 2u);
  // Round 2 repeats round 1's descents: the per-top caches must show hits,
  // and both bounded caches respect their cap.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_cold_misses, 0u);
  EXPECT_LE(stats.cache_entries, 2u * 4u);
  EXPECT_GT(stats.cache_bytes, 0u);

  // Per-service view matches the aggregate's components.
  const auto small_stats = cluster.service("small").stats();
  const auto large_stats = cluster.service("large").stats();
  EXPECT_EQ(small_stats.cache_hits + large_stats.cache_hits,
            stats.cache_hits);
  EXPECT_LE(small_stats.cache_entries, 4u);
  EXPECT_LE(large_stats.cache_entries, 4u);
}

TEST(FusionCluster, BoundedClusterMatchesOracle) {
  const ClusterFixture fx;
  // Responses come back in submission order: s1, l1, s2, l2, s3, l3.
  std::vector<std::vector<Partition>> expected;
  for (const std::uint32_t f : {1u, 2u, 3u}) {
    GenerateOptions single;
    single.f = f;
    expected.push_back(
        oracle_generate_fusion(fx.small.top, fx.small_originals, single)
            .partitions);
    expected.push_back(
        oracle_generate_fusion(fx.large.top, fx.large_originals, single)
            .partitions);
  }

  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{2}, std::size_t{4},
        LowerCoverCache::kDefaultCapacity}) {
    FusionClusterOptions options;
    options.cache_capacity = capacity;
    const auto cluster_ptr = fx.make_cluster(options);
    FusionCluster& cluster = *cluster_ptr;
    for (const std::uint32_t f : {1u, 2u, 3u}) {
      cluster.submit("small", std::string("s").append(std::to_string(f)),
                     {fx.small_originals, f});
      cluster.submit("large", std::string("l").append(std::to_string(f)),
                     {fx.large_originals, f});
    }
    const auto report = cluster.drain();
    ASSERT_EQ(report.responses.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(report.responses[i].result.partitions, expected[i])
          << "capacity " << capacity << " response " << i;
  }
}

TEST(FusionCluster, ExplicitInProcessFactoryMatchesDefaultBackend) {
  // The default cluster and one built from an explicit InProcessBackend
  // factory are the same architecture spelled two ways — responses and
  // per-top stats surfaces must agree exactly.
  const ClusterFixture fx;
  FusionClusterOptions factory_options;
  factory_options.backend_factory = [](std::size_t) {
    return std::make_unique<InProcessBackend>(FusionServiceOptions{});
  };
  const auto factory_cluster = fx.make_cluster(factory_options);
  const auto default_cluster = fx.make_cluster();

  for (FusionCluster* cluster :
       {factory_cluster.get(), default_cluster.get()}) {
    cluster->submit("small", "a", {fx.small_originals, 1});
    cluster->submit("large", "b", {fx.large_originals, 2});
  }
  const auto expected = default_cluster->drain();
  const auto actual = factory_cluster->drain();
  ASSERT_EQ(actual.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < expected.responses.size(); ++i)
    EXPECT_EQ(actual.responses[i].result.partitions,
              expected.responses[i].result.partitions);

  // Both the concrete-service hatch and the backend-agnostic stats path
  // work for in-process backends.
  EXPECT_EQ(factory_cluster->service("small").stats().requests_served,
            factory_cluster->top_stats("small").requests_served);
  EXPECT_EQ(factory_cluster->top_stats("small").requests_served, 1u);
  EXPECT_EQ(factory_cluster->backend("small").pending("small"), 0u);
}

TEST(FusionCluster, ConcurrentSubmittersAllGetServed) {
  const ClusterFixture fx;
  ThreadPool pool(4);
  FusionClusterOptions options;
  options.pool = &pool;
  const auto cluster_ptr = fx.make_cluster(options);
  FusionCluster& cluster = *cluster_ptr;

  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c)
    clients.emplace_back([&cluster, &fx, c] {
      if (c % 2 == 0)
        cluster.submit("small", std::string("c").append(std::to_string(c)),
                       {fx.small_originals, 1});
      else
        cluster.submit("large", std::string("c").append(std::to_string(c)),
                       {fx.large_originals, 1});
    });
  for (auto& c : clients) c.join();
  EXPECT_EQ(cluster.pending(), 8u);

  const auto report = cluster.drain();
  ASSERT_EQ(report.responses.size(), 8u);
  for (std::size_t i = 1; i < report.responses.size(); ++i)
    EXPECT_LT(report.responses[i - 1].ticket, report.responses[i].ticket);
}

TEST(FusionCluster, QueueGaugesTrackPendingWork) {
  const ClusterFixture fx;
  const auto cluster_ptr = fx.make_cluster();
  FusionCluster& cluster = *cluster_ptr;

  const auto gauges = [&] { return cluster.obs_snapshot().gauges; };
  cluster.submit("small", "a", {fx.small_originals, 1});
  cluster.submit("small", "b", {fx.small_originals, 2});
  cluster.submit("large", "c", {fx.large_originals, 1});
  EXPECT_EQ(gauges().at("cluster.queue_depth"), 3);
  EXPECT_EQ(gauges().at("cluster.pending.small"), 2);
  EXPECT_EQ(gauges().at("cluster.pending.large"), 1);

  (void)cluster.drain();
  EXPECT_EQ(gauges().at("cluster.queue_depth"), 0);
  EXPECT_EQ(gauges().at("cluster.pending.small"), 0);
  EXPECT_EQ(gauges().at("cluster.pending.large"), 0);

  // discard_pending drops the gauges along with the backlog.
  cluster.submit("small", "d", {fx.small_originals, 1});
  EXPECT_EQ(gauges().at("cluster.queue_depth"), 1);
  EXPECT_EQ(cluster.discard_pending("small"), 1u);
  EXPECT_EQ(gauges().at("cluster.queue_depth"), 0);
  EXPECT_EQ(gauges().at("cluster.pending.small"), 0);
}

TEST(FusionCluster, ManualTelemetryPollFeedsTheWindowedView) {
  const ClusterFixture fx;
  FusionClusterOptions options;
  options.telemetry_windows = {.windows = 4, .window_us = 60'000'000};
  const auto cluster_ptr = fx.make_cluster(options);
  FusionCluster& cluster = *cluster_ptr;

  EXPECT_TRUE(cluster.obs_windows().windows().empty());  // no poll yet

  cluster.submit("small", "a", {fx.small_originals, 1});
  (void)cluster.drain();
  cluster.poll_telemetry();
  const obs::ObsSnapshot first = cluster.obs_windows().merged();
  // cluster.drain is a span-backed series: one drain = one histogram
  // sample in the window's activity.
  EXPECT_EQ(first.histograms.at("cluster.drain").count(), 1u);
  EXPECT_GE(first.histograms.at("gen.request").count(), 1u);
  EXPECT_TRUE(first.spans.empty());  // windows carry activity, not traces

  // A second poll with no traffic in between adds nothing — the windowed
  // view is deltas, not re-counted cumulatives.
  cluster.poll_telemetry();
  EXPECT_EQ(
      cluster.obs_windows().merged().histograms.at("cluster.drain").count(),
      1u);

  cluster.submit("small", "b", {fx.small_originals, 1});
  (void)cluster.drain();
  cluster.poll_telemetry();
  EXPECT_EQ(
      cluster.obs_windows().merged().histograms.at("cluster.drain").count(),
      2u);
  EXPECT_EQ(cluster.obs_windows().config().windows, 4u);
}

TEST(FusionCluster, BackgroundPollerFillsWindowsAndStopsCleanly) {
  const ClusterFixture fx;
  FusionClusterOptions options;
  options.telemetry_poll_us = 1000;  // 1 ms: several polls per drain
  options.telemetry_windows = {.windows = 2, .window_us = 60'000'000};
  const auto cluster_ptr = fx.make_cluster(options);
  FusionCluster& cluster = *cluster_ptr;

  cluster.submit("small", "a", {fx.small_originals, 1});
  cluster.submit("large", "b", {fx.large_originals, 1});
  (void)cluster.drain();
  // The poller races this check; give it a few periods to observe the
  // drain, then the destructor must join it without hanging.
  for (int spin = 0; spin < 200; ++spin) {
    if (cluster.obs_windows().merged().histograms.count("cluster.drain") >
        0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(
      cluster.obs_windows().merged().histograms.at("cluster.drain").count(),
      1u);
  cluster.shutdown();  // also stops the poller; idempotent with ~
}

}  // namespace
}  // namespace ffsm
