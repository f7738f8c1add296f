// A subprocess shard — a WireBackend whose one replica is a worker it
// spawns: out-of-process shards serve bit-identically to in-process ones,
// survive SIGKILLed workers by respawning inside the same drain and
// re-serving the still-queued requests, reap every worker they spawned,
// and route unserveable backlogs through the cluster's existing
// failed-drain path.
#include "sim/wire_backend.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fusion/generator.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "oracle.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using ffsm::testing::oracle_generate_fusion;
using std::chrono::milliseconds;

/// The standard two-top fixture plus the reference results a cluster of
/// any backend must reproduce bit-identically.
struct SubprocessFixture {
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

/// A subprocess shard: one private worker, spawned on the first drain.
BackendConfig subprocess_config() {
  BackendConfig config;
  config.kind = BackendConfig::Kind::kSubprocess;
  return config;
}

/// Whether this test process has no child left, reaped or not.
bool no_child_left() {
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

/// A cluster whose every shard is a subprocess worker; raw backend
/// pointers are kept so tests can kill the processes underneath.
struct SubprocessCluster {
  std::vector<WireBackend*> backends;
  std::unique_ptr<FusionCluster> cluster;

  explicit SubprocessCluster(const SubprocessFixture& fx,
                             std::size_t shards = 2) {
    FusionClusterOptions options;
    options.shards = shards;
    options.backend_factory = [this](std::size_t) {
      BackendConfig config = subprocess_config();
      config.service.parallel = false;  // lean workers for tests
      auto backend = std::make_unique<WireBackend>(config);
      backends.push_back(backend.get());
      return backend;
    };
    cluster = std::make_unique<FusionCluster>(options);
    cluster->add_top("small", fx.small.top);
    cluster->add_top("large", fx.large.top);
  }

  WireBackend& backend_of(const std::string& key) const {
    return *backends[cluster->shard_of(key)];
  }
};

TEST(SubprocessBackend, ServesBitIdenticallyToDirectGeneration) {
  const SubprocessFixture fx;
  WireBackend backend(subprocess_config());
  backend.add_top("small", fx.small.top);
  EXPECT_EQ(backend.worker_pid(), 0);  // spawn is lazy

  backend.validate("small", {fx.small_originals, 1});
  const std::uint64_t t1 =
      backend.submit("small", "alice", {fx.small_originals, 1});
  const std::uint64_t t2 = backend.submit(
      "small", "bob", {fx.small_originals, 2, DescentPolicy::kMostBlocks});
  EXPECT_LT(t1, t2);
  EXPECT_EQ(backend.pending("small"), 2u);

  const auto responses = backend.drain("small");
  EXPECT_GT(backend.worker_pid(), 0);
  EXPECT_EQ(backend.connects(), 1u);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(backend.pending("small"), 0u);
  EXPECT_EQ(responses[0].ticket, t1);
  EXPECT_EQ(responses[0].client, "alice");
  EXPECT_EQ(responses[1].ticket, t2);
  EXPECT_EQ(responses[1].client, "bob");
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(responses[1].result.partitions,
            fx.direct(true, 2, DescentPolicy::kMostBlocks).partitions);

  // Counters cross the wire; the worker's cache persists across drains.
  const ServiceStats cold = backend.stats("small");
  EXPECT_EQ(cold.requests_served, 2u);
  EXPECT_EQ(cold.batches_served, 1u);
  EXPECT_GT(cold.cache_cold_misses, 0u);

  backend.submit("small", "carol", {fx.small_originals, 1});
  const auto warm = backend.drain("small");
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0].result.partitions, responses[0].result.partitions);
  EXPECT_EQ(warm[0].result.stats.closures_evaluated, 0u);  // all cached
  EXPECT_GT(backend.stats("small").cache_hits, 0u);
  EXPECT_EQ(backend.connects(), 1u);  // same worker throughout

  backend.validate("small", {fx.small_originals, 1});
  EXPECT_THROW(backend.validate("small", {fx.large_originals, 1}),
               ContractViolation);
  EXPECT_THROW((void)backend.drain("nope"), ContractViolation);
}

TEST(SubprocessBackend, ShutdownReapsWorkerAndNextDrainRespawns) {
  const SubprocessFixture fx;
  WireBackend backend(subprocess_config());
  backend.add_top("small", fx.small.top);
  backend.submit("small", "a", {fx.small_originals, 1});
  const auto first = backend.drain("small");
  ASSERT_EQ(first.size(), 1u);
  const int pid = backend.worker_pid();
  ASSERT_GT(pid, 0);

  backend.shutdown();
  EXPECT_EQ(backend.worker_pid(), 0);
  // The worker really exited: its pid is gone (ESRCH) or at least no
  // longer our child (shutdown reaped it).
  EXPECT_NE(::kill(pid, 0), 0);

  backend.submit("small", "b", {fx.small_originals, 1});
  const auto second = backend.drain("small");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].result.partitions, first[0].result.partitions);
  EXPECT_EQ(backend.connects(), 2u);
}

TEST(SubprocessBackend, RespawnReplaysWarmCacheToTheFreshWorker) {
  const SubprocessFixture fx;
  WireBackend backend(subprocess_config());
  backend.add_top("small", fx.small.top);

  // First drain computes everything; afterwards the backend captures the
  // worker's hottest cache entries as the top's warm snapshot.
  backend.submit("small", "a", {fx.small_originals, 1});
  backend.submit("small", "b",
                 {fx.small_originals, 2, DescentPolicy::kMostBlocks});
  const auto first = backend.drain("small");
  ASSERT_EQ(first.size(), 2u);
  const int pid = backend.worker_pid();
  ASSERT_GT(pid, 0);

  // SIGKILL the worker (the backend reaps it): the respawn handshake
  // replays the snapshot, so the fresh process serves the repeated stream
  // from its predecessor's hot set — zero cold misses where an unwarmed
  // respawn would re-enter every descent partition cold.
  ::kill(pid, SIGKILL);
  backend.submit("small", "a2", {fx.small_originals, 1});
  backend.submit("small", "b2",
                 {fx.small_originals, 2, DescentPolicy::kMostBlocks});
  const auto second = backend.drain("small");
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(backend.connects(), 2u);
  const ServiceStats stats = backend.stats("small");
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_cold_misses, 0u);

  // Warm or cold, the results are bit-identical.
  EXPECT_EQ(second[0].result.partitions, first[0].result.partitions);
  EXPECT_EQ(second[1].result.partitions, first[1].result.partitions);
}

/// Lifetime value of counter `name` in `obs` (0 when never counted).
std::uint64_t counter(const obs::Obs& obs, const std::string& name) {
  const obs::ObsSnapshot snapshot = obs.snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// The snapshot a respawn replays is the hot set the last drain left, also
// when that drain only hit: with more covers resident than a snapshot
// holds, hits alone change which entries are the hottest.
TEST(SubprocessBackend, RespawnReplaysTheHotSetOfAHitOnlyDrain) {
  // Six toggles crossed into a 64-state top. The descents for the pairs
  // and triples of its components leave ~95 covers resident.
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  for (int i = 0; i < 6; ++i)
    machines.push_back(make_mod_counter(
        alphabet, std::string("T").append(std::to_string(i)), 2,
        std::to_string(i)));
  const CrossProduct toggles = reachable_cross_product(machines);
  const std::vector<Partition> parts = component_partitions(toggles);
  const FusionRequest hot{{parts[0], parts[1]}, 1};
  std::vector<FusionRequest> others;
  for (std::uint32_t f = 1; f <= 2; ++f)
    for (std::size_t i = 0; i < parts.size(); ++i)
      for (std::size_t j = i + 1; j < parts.size(); ++j) {
        if (f != hot.f || i != 0 || j != 1)
          others.push_back({{parts[i], parts[j]}, f});
        for (std::size_t l = j + 1; l < parts.size(); ++l)
          others.push_back({{parts[i], parts[j], parts[l]}, f});
      }

  obs::Obs obs;
  BackendConfig config = subprocess_config();
  // Serial batches serve requests in ticket order, so the cache's recency
  // order (and with it the hot set) does not depend on thread timing.
  config.service.parallel = false;
  config.obs = &obs;
  WireBackend backend(config);
  backend.add_top("toggles", toggles.top);

  // Cold: the request under test, then the others, whose covers push its
  // own out of the hottest kWarmSnapshotEntries.
  backend.submit("toggles", "hot", hot);
  const auto first = backend.drain("toggles");
  ASSERT_EQ(first.size(), 1u);
  for (const FusionRequest& other : others)
    backend.submit("toggles", "other", other);
  ASSERT_EQ(backend.drain("toggles").size(), others.size());
  ASSERT_GT(backend.stats("toggles").cache_entries, kWarmSnapshotEntries);

  // Warm: the request again. Every lookup hits, so only recency moves —
  // enough to bring its covers back into the hot set, so the reply ships a
  // snapshot like the two cold ones did. Once more, and the hot set stays.
  backend.submit("toggles", "hot", hot);
  const auto warm = backend.drain("toggles");
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0].result.stats.closures_evaluated, 0u);
  EXPECT_EQ(counter(obs, "wire.warm_snapshot"), 3u);
  backend.submit("toggles", "hot", hot);
  ASSERT_EQ(backend.drain("toggles").size(), 1u);
  EXPECT_EQ(counter(obs, "wire.warm_snapshot"), 3u);

  // The respawned worker is warmed with the hit-only drain's hot set, so
  // the request misses nothing.
  ::kill(backend.worker_pid(), SIGKILL);
  backend.submit("toggles", "hot", hot);
  const auto respawned = backend.drain("toggles");
  ASSERT_EQ(respawned.size(), 1u);
  EXPECT_EQ(backend.connects(), 2u);
  EXPECT_EQ(respawned[0].result.stats.closures_evaluated, 0u);
  EXPECT_EQ(backend.stats("toggles").cache_cold_misses, 0u);
  EXPECT_EQ(respawned[0].result.partitions, first[0].result.partitions);
}

TEST(SubprocessCluster, DrainsEveryBackloggedTopOfAShardInOneRoundTrip) {
  const SubprocessFixture fx;
  obs::Obs obs;
  FusionClusterOptions options;
  options.shards = 1;
  options.obs = &obs;
  options.backend_factory = [&](std::size_t) {
    BackendConfig config = subprocess_config();
    config.service.parallel = false;
    config.obs = &obs;
    return std::make_unique<WireBackend>(config);
  };
  FusionCluster cluster(options);
  cluster.add_top("small", fx.small.top);
  cluster.add_top("large", fx.large.top);
  cluster.add_top("twin", fx.small.top);
  cluster.submit("small", "a", {fx.small_originals, 1});
  cluster.submit("large", "b",
                 {fx.large_originals, 2, DescentPolicy::kMostBlocks});
  cluster.submit("twin", "c", {fx.small_originals, 2});
  cluster.submit("large", "d", {fx.large_originals, 1});
  const auto report = cluster.drain();
  EXPECT_TRUE(report.failed_tops.empty());
  ASSERT_EQ(report.responses.size(), 4u);
  EXPECT_EQ(report.responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(report.responses[1].result.partitions,
            fx.direct(false, 2, DescentPolicy::kMostBlocks).partitions);
  EXPECT_EQ(report.responses[2].result.partitions,
            fx.direct(true, 2, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(report.responses[3].result.partitions,
            fx.direct(false, 1, DescentPolicy::kFewestBlocks).partitions);

  // All three batches are on the wire before a reply is awaited: one
  // round trip of depth 3, and each batch's cache snapshot rides its
  // reply.
  const obs::HistogramSnapshot depth =
      obs.snapshot().histograms.at("wire.pipeline_depth");
  EXPECT_EQ(depth.count(), 1u);
  EXPECT_EQ(depth.sum, 3u);
  EXPECT_EQ(counter(obs, "wire.warm_snapshot"), 3u);
  cluster.shutdown();
}

TEST(SubprocessCluster, ServesBitIdenticallyToInProcessCluster) {
  const SubprocessFixture fx;

  // Reference: the default in-process cluster over the same stream.
  FusionClusterOptions in_process_options;
  in_process_options.shards = 2;
  FusionCluster reference(in_process_options);
  reference.add_top("small", fx.small.top);
  reference.add_top("large", fx.large.top);

  SubprocessCluster subprocess(fx);

  const auto submit_stream = [&](FusionCluster& cluster) {
    for (int c = 0; c < 3; ++c) {
      const auto f = static_cast<std::uint32_t>(1 + c % 3);
      cluster.submit("small", std::string("s").append(std::to_string(c)),
                     {fx.small_originals, f});
      cluster.submit("large", std::string("l").append(std::to_string(c)),
                     {fx.large_originals, f,
                      c % 2 == 0 ? DescentPolicy::kFewestBlocks
                                 : DescentPolicy::kMostBlocks});
    }
  };
  submit_stream(reference);
  submit_stream(*subprocess.cluster);

  const auto expected = reference.drain();
  const auto actual = subprocess.cluster->drain();
  EXPECT_TRUE(actual.failed_tops.empty());
  EXPECT_EQ(actual.requeued, 0u);
  ASSERT_EQ(actual.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < expected.responses.size(); ++i) {
    EXPECT_EQ(actual.responses[i].ticket, expected.responses[i].ticket);
    EXPECT_EQ(actual.responses[i].top, expected.responses[i].top);
    EXPECT_EQ(actual.responses[i].client, expected.responses[i].client);
    EXPECT_EQ(actual.responses[i].result.partitions,
              expected.responses[i].result.partitions)
        << "response " << i;
  }

  // Backend-agnostic stats surface: worker counters aggregate into the
  // cluster view exactly like in-process ones.
  const auto stats = subprocess.cluster->stats();
  EXPECT_EQ(stats.requests_served, expected.responses.size());
  EXPECT_GT(stats.shard_batches_served, 0u);
  EXPECT_GT(stats.cache_cold_misses, 0u);
  EXPECT_EQ(subprocess.cluster->top_stats("small").requests_served, 3u);
  // service() is an in-process-only hatch and must say so loudly.
  EXPECT_THROW((void)subprocess.cluster->service("small"),
               ContractViolation);
}

TEST(SubprocessCluster, SigkilledWorkerIsRespawnedAndRequestsStillServe) {
  const SubprocessFixture fx;
  SubprocessCluster subprocess(fx);
  FusionCluster& cluster = *subprocess.cluster;

  // Round 1 spawns the workers and warms them up.
  cluster.submit("small", "warm", {fx.small_originals, 1});
  cluster.submit("large", "warm", {fx.large_originals, 1});
  const auto first = cluster.drain();
  ASSERT_EQ(first.responses.size(), 2u);

  // Kill the worker hosting "small" outright, then ask for more work.
  WireBackend& small_backend = subprocess.backend_of("small");
  const int victim = small_backend.worker_pid();
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The serve exchange finds the corpse (a failed write or EOF), and the
  // in-drain re-send spawns a fresh worker and serves the batch there: the
  // same drain answers, nothing is re-queued, no top fails.
  cluster.submit("small", "after-kill", {fx.small_originals, 2});
  const auto report = cluster.drain();
  EXPECT_TRUE(report.failed_tops.empty());
  EXPECT_EQ(report.requeued, 0u);
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].client, "after-kill");
  EXPECT_EQ(report.responses[0].result.partitions,
            fx.direct(true, 2, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(cluster.pending(), 0u);
  EXPECT_EQ(small_backend.connects(), 2u);  // one respawn, exactly
  EXPECT_NE(small_backend.worker_pid(), victim);

  // The fresh worker restarted its counters (real process semantics) but
  // keeps serving identically.
  cluster.submit("small", "again", {fx.small_originals, 1});
  const auto again = cluster.drain();
  ASSERT_EQ(again.responses.size(), 1u);
  EXPECT_EQ(again.responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(small_backend.connects(), 2u);

  // The corpse and both live workers were reaped: once the backends are
  // gone, this process has no child left.
  subprocess.cluster.reset();
  EXPECT_TRUE(no_child_left());
}

TEST(SubprocessCluster, UnspawnableWorkerRoutesThroughFailedDrainPath) {
  // A worker binary that exits immediately can never complete the
  // handshake: every drain must fail, every request must survive in the
  // queue, and discard_pending must still evict the backlog.
  const SubprocessFixture fx;
  FusionClusterOptions options;
  options.shards = 1;
  options.parallel = false;
  options.backend_factory = [](std::size_t) {
    BackendConfig config = subprocess_config();
    config.worker_path = "/bin/false";  // dies before the hello
    config.connect_retry = {2, milliseconds(10), milliseconds(50), 2};
    config.serve_retry = {2, milliseconds(10), milliseconds(50), 2};
    return std::make_unique<WireBackend>(config);
  };
  auto owned = std::make_unique<FusionCluster>(options);
  FusionCluster& cluster = *owned;
  cluster.add_top("small", fx.small.top);

  cluster.submit("small", "doomed", {fx.small_originals, 1});
  for (int round = 0; round < 2; ++round) {
    const auto report = cluster.drain();
    EXPECT_TRUE(report.responses.empty());
    EXPECT_EQ(report.requeued, 1u) << "round " << round;
    EXPECT_EQ(report.failed_tops, std::vector<std::string>{"small"});
    EXPECT_EQ(cluster.pending(), 1u);  // never lost, never served
  }
  const auto stats = cluster.stats();
  EXPECT_GE(stats.drain_failures, 2u);
  EXPECT_EQ(stats.requests_served, 0u);

  EXPECT_EQ(cluster.discard_pending("small"), 1u);
  EXPECT_EQ(cluster.pending(), 0u);
  const auto clean = cluster.drain();
  EXPECT_TRUE(clean.responses.empty());
  EXPECT_TRUE(clean.failed_tops.empty());

  // Every spawn that failed its hello was killed and reaped on the spot.
  owned.reset();
  EXPECT_TRUE(no_child_left());
}

TEST(SubprocessCluster, WorkerSpansStitchUnderParentServeSpans) {
  // Cross-process trace stitching over three processes — this one plus
  // two shard workers. The serve frame carries the parent-side
  // cluster.serve_top span id; every worker-side gen.request span must
  // parent-link under one of those ids, so one Chrome trace shows the
  // cluster drain and the worker generation as a single tree.
  const SubprocessFixture fx;
  SubprocessCluster subprocess(fx);
  FusionCluster& cluster = *subprocess.cluster;

  // Make sure both shards see work (and therefore both workers spawn):
  // if "small" and "large" hash onto the same shard, register a third
  // top on the other one.
  std::set<std::size_t> used = {cluster.shard_of("small"),
                                cluster.shard_of("large")};
  for (int i = 0; used.size() < cluster.shard_count(); ++i) {
    const std::string key = std::string("stitch").append(std::to_string(i));
    if (!used.insert(cluster.shard_of(key)).second) continue;
    cluster.add_top(key, fx.small.top);
    cluster.submit(key, "extra", {fx.small_originals, 1});
  }
  cluster.submit("small", "a", {fx.small_originals, 1});
  cluster.submit("large", "b", {fx.large_originals, 1});
  const auto report = cluster.drain();
  EXPECT_TRUE(report.failed_tops.empty());
  ASSERT_GE(report.responses.size(), 2u);
  for (const WireBackend* backend : subprocess.backends)
    ASSERT_GT(backend->worker_pid(), 0);  // three processes, really

  const obs::ObsSnapshot snapshot = cluster.obs_snapshot();
  std::set<std::uint64_t> serve_top_ids;
  for (const obs::TraceSpan& span : snapshot.spans)
    if (span.name == "cluster.serve_top" && span.source.empty())
      serve_top_ids.insert(span.id);
  ASSERT_FALSE(serve_top_ids.empty());

  std::set<std::string> stitched_sources;
  for (const obs::TraceSpan& span : snapshot.spans) {
    if (span.source.empty() || span.name != "gen.request") continue;
    EXPECT_TRUE(serve_top_ids.count(span.parent))
        << span.name << " from " << span.source
        << " parented under unknown span " << span.parent;
    stitched_sources.insert(span.source);
  }
  // Both workers contributed stitched spans, not just one.
  EXPECT_EQ(stitched_sources.size(), cluster.shard_count());
}

TEST(SubprocessCluster, MalformedRequestIsRequeuedAtTheCluster) {
  // Contents validation stays caller-side for subprocess backends: the
  // malformed request never crosses the wire, and the failure model is
  // byte-for-byte the in-process one.
  const SubprocessFixture fx;
  SubprocessCluster subprocess(fx, 1);
  FusionCluster& cluster = *subprocess.cluster;

  cluster.submit("large", "bad", {fx.small_originals, 1});  // wrong top
  cluster.submit("small", "good", {fx.small_originals, 1});
  const auto report = cluster.drain();
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].client, "good");
  EXPECT_EQ(report.requeued, 1u);
  EXPECT_EQ(report.failed_tops, std::vector<std::string>{"large"});
  EXPECT_EQ(cluster.discard_pending("large"), 1u);
}

}  // namespace
}  // namespace ffsm
