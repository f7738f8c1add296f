#include "sim/server.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "sim/event_source.hpp"
#include "sim/fault_injector.hpp"
#include "oracle.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

TEST(Server, StartsAtInitialState) {
  auto al = Alphabet::create();
  const Server s{make_mod_counter(al, "c", 3, "e")};
  EXPECT_FALSE(s.crashed());
  EXPECT_EQ(s.state(), 0u);
}

TEST(Server, AppliesSubscribedEvents) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  const EventId e = *al->find("e");
  s.apply(e);
  s.apply(e);
  EXPECT_EQ(s.state(), 2u);
}

TEST(Server, IgnoresForeignEvents) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  const EventId other = al->intern("other");
  s.apply(other);
  EXPECT_EQ(s.state(), 0u);
}

TEST(Server, CrashLosesState) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  s.apply(*al->find("e"));
  s.crash();
  EXPECT_TRUE(s.crashed());
  EXPECT_THROW((void)s.state(), ContractViolation);
}

TEST(Server, CrashedServerDropsEvents) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  s.crash();
  s.apply(*al->find("e"));  // must not throw
  EXPECT_TRUE(s.crashed());
}

TEST(Server, CountsEventsDroppedWhileCrashed) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  const EventId e = *al->find("e");
  const EventId foreign = al->intern("other");

  s.apply(e);
  EXPECT_EQ(s.dropped_events(), 0u);  // healthy servers drop nothing
  s.crash();
  s.apply(e);
  s.apply(e);
  s.apply(foreign);  // ignored healthy or crashed — never a drop
  EXPECT_EQ(s.dropped_events(), 2u);

  // The counter survives recovery: it records lifetime loss, so a
  // scenario can assert quiescence (== 0) after the fact.
  s.restore(1);
  s.apply(e);
  EXPECT_EQ(s.dropped_events(), 2u);
  EXPECT_EQ(s.state(), 2u);
}

TEST(Server, CorruptInstallsWrongState) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  s.corrupt(2);
  EXPECT_FALSE(s.crashed());
  EXPECT_EQ(s.state(), 2u);
}

TEST(Server, CorruptOutOfRangeThrows) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  EXPECT_THROW(s.corrupt(3), ContractViolation);
}

TEST(Server, RestoreRevivesCrashedServer) {
  auto al = Alphabet::create();
  Server s{make_mod_counter(al, "c", 3, "e")};
  s.crash();
  s.restore(1);
  EXPECT_FALSE(s.crashed());
  EXPECT_EQ(s.state(), 1u);
}

TEST(ScriptedEventSource, ReplaysAndExhausts) {
  ScriptedEventSource src({5, 7, 5});
  EXPECT_EQ(src.next(), EventId{5});
  EXPECT_EQ(src.next(), EventId{7});
  EXPECT_EQ(src.next(), EventId{5});
  EXPECT_FALSE(src.next().has_value());
  EXPECT_FALSE(src.next().has_value());
}

TEST(RandomEventSource, DrawsFromSupportOnly) {
  RandomEventSource src({2, 4, 8}, 500, 11);
  std::size_t count = 0;
  while (const auto e = src.next()) {
    EXPECT_TRUE(*e == 2 || *e == 4 || *e == 8);
    ++count;
  }
  EXPECT_EQ(count, 500u);
}

TEST(RandomEventSource, SameSeedSameStream) {
  RandomEventSource a({1, 2, 3}, 100, 42);
  RandomEventSource b({1, 2, 3}, 100, 42);
  while (true) {
    const auto x = a.next();
    const auto y = b.next();
    EXPECT_EQ(x, y);
    if (!x) break;
  }
}

TEST(FaultPlan, RespectsCounts) {
  FaultPlanSpec spec;
  spec.server_count = 10;
  spec.steps = 50;
  spec.crashes = 3;
  spec.byzantine = 2;
  const auto plan = plan_faults(spec);
  ASSERT_EQ(plan.size(), 5u);
  std::size_t byz = 0;
  for (const auto& f : plan) byz += f.byzantine ? 1 : 0;
  EXPECT_EQ(byz, 2u);
}

TEST(FaultPlan, VictimsAreDistinct) {
  FaultPlanSpec spec;
  spec.server_count = 6;
  spec.steps = 10;
  spec.crashes = 4;
  spec.byzantine = 2;
  const auto plan = plan_faults(spec);
  std::vector<bool> seen(6, false);
  for (const auto& f : plan) {
    EXPECT_FALSE(seen[f.server]) << "server " << f.server << " hit twice";
    seen[f.server] = true;
  }
}

TEST(FaultPlan, StepsSortedAndWithinStream) {
  FaultPlanSpec spec;
  spec.server_count = 8;
  spec.steps = 30;
  spec.crashes = 5;
  const auto plan = plan_faults(spec);
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_LE(plan[i - 1].step, plan[i].step);
  for (const auto& f : plan) EXPECT_LE(f.step, 30u);
}

TEST(FaultPlan, TooManyFaultsRejected) {
  FaultPlanSpec spec;
  spec.server_count = 2;
  spec.crashes = 2;
  spec.byzantine = 1;
  EXPECT_THROW((void)plan_faults(spec), ContractViolation);
}

// --------------------------------------------------------- FusionService

/// The 64-state product of two catalog counters plus a service over its
/// top — one construction shared by every FusionService test.
struct ServiceFixture {
  CrossProduct product = ffsm::testing::counter_pair_product();
  std::vector<Partition> originals =
      ffsm::testing::component_partitions(product);

  FusionService make_service(FusionServiceOptions options = {}) const {
    return FusionService(product.top, options);
  }
};

TEST(FusionService, ServesMultipleClientsInTicketOrder) {
  const ServiceFixture fx;
  FusionService service = fx.make_service();
  const auto& originals = fx.originals;

  FusionRequest r1{originals, 1, DescentPolicy::kFewestBlocks};
  FusionRequest r2{originals, 2, DescentPolicy::kFewestBlocks};
  const std::uint64_t t1 = service.submit("alice", r1);
  const std::uint64_t t2 = service.submit("bob", r2);
  EXPECT_LT(t1, t2);
  EXPECT_EQ(service.pending(), 2u);

  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(responses[0].ticket, t1);
  EXPECT_EQ(responses[0].client, "alice");
  EXPECT_EQ(responses[1].ticket, t2);
  EXPECT_EQ(responses[1].client, "bob");

  // Each response matches the oracle's Algorithm 2 run.
  for (const auto& [request, response] :
       {std::pair{r1, responses[0]}, std::pair{r2, responses[1]}}) {
    GenerateOptions single;
    single.f = request.f;
    single.policy = request.policy;
    const FusionResult expected = testing::oracle_generate_fusion(
        service.top(), request.originals, single);
    EXPECT_EQ(response.result.partitions, expected.partitions);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 2u);
  EXPECT_EQ(stats.requests_served, 2u);
  EXPECT_EQ(stats.batches_served, 1u);
}

TEST(FusionService, DrainOnEmptyQueueIsANoop) {
  FusionService service = ServiceFixture().make_service();
  EXPECT_TRUE(service.drain().empty());
  EXPECT_EQ(service.stats().batches_served, 0u);
}

TEST(FusionService, CacheCarriesAcrossBatches) {
  const ServiceFixture fx;
  FusionService service = fx.make_service();
  const auto& originals = fx.originals;

  service.submit("c1", {originals, 2, DescentPolicy::kFewestBlocks});
  const auto first = service.drain();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_GT(first[0].result.stats.closures_evaluated, 0u);

  // Identical request in a second batch: the persistent cache means no new
  // closure evaluations at all.
  service.submit("c2", {originals, 2, DescentPolicy::kFewestBlocks});
  const auto second = service.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].result.stats.closures_evaluated, 0u);
  EXPECT_EQ(second[0].result.partitions, first[0].result.partitions);
  EXPECT_GT(service.cache().hits(), 0u);
}

TEST(FusionService, ConcurrentSubmittersAllGetServed) {
  ThreadPool pool(4);
  FusionServiceOptions options;
  options.pool = &pool;
  const ServiceFixture fx;
  FusionService service = fx.make_service(options);
  const auto& originals = fx.originals;

  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c)
    clients.emplace_back([&service, &originals, c] {
      FusionRequest r;
      r.originals = originals;
      r.f = 1 + static_cast<std::uint32_t>(c % 3);
      service.submit(std::string("client").append(std::to_string(c)), r);
    });
  for (auto& c : clients) c.join();
  EXPECT_EQ(service.pending(), 6u);

  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 6u);
  for (std::size_t i = 1; i < responses.size(); ++i)
    EXPECT_LT(responses[i - 1].ticket, responses[i].ticket);
  for (const auto& response : responses)
    EXPECT_GT(response.result.stats.dmin_after, 0u);
}

TEST(FusionService, StatsExposeCacheCounters) {
  const ServiceFixture fx;
  FusionService service = fx.make_service();

  const auto cold = service.stats();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_entries, 0u);
  EXPECT_EQ(cold.cache_bytes, 0u);

  service.submit("c1", {fx.originals, 2, DescentPolicy::kFewestBlocks});
  (void)service.drain();
  service.submit("c2", {fx.originals, 2, DescentPolicy::kFewestBlocks});
  (void)service.drain();

  const auto warm = service.stats();
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_GT(warm.cache_cold_misses, 0u);
  EXPECT_GT(warm.cache_entries, 0u);
  EXPECT_GT(warm.cache_bytes, 0u);
  // The default capacity is far above this workload.
  EXPECT_EQ(warm.cache_evictions, 0u);
  EXPECT_EQ(warm.cache_eviction_misses, 0u);
  EXPECT_LE(warm.cache_entries, service.cache().capacity());
}

TEST(FusionService, BoundedCacheServiceStaysUnderCapAndServesIdentically) {
  const ServiceFixture fx;
  GenerateOptions single;
  single.f = 3;
  single.policy = DescentPolicy::kFewestBlocks;
  const FusionResult expected =
      testing::oracle_generate_fusion(fx.product.top, fx.originals, single);
  ASSERT_FALSE(expected.partitions.empty());

  // The default capacity runs first: it never evicts, so its resident
  // entries are the request's whole working set.
  std::size_t working_set = 0;
  for (const std::size_t capacity :
       {LowerCoverCache::kDefaultCapacity, std::size_t{4}, std::size_t{2},
        std::size_t{1}}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    FusionServiceOptions options;
    options.cache_capacity = capacity;
    FusionService service = fx.make_service(options);
    for (int round = 0; round < 2; ++round) {
      service.submit("c", {fx.originals, 3, DescentPolicy::kFewestBlocks});
      const auto responses = service.drain();
      ASSERT_EQ(responses.size(), 1u);
      EXPECT_EQ(responses[0].result.partitions, expected.partitions);
      EXPECT_LE(service.cache().size(), capacity);
    }
    const auto stats = service.stats();
    EXPECT_LE(stats.cache_entries, capacity);
    if (working_set == 0) {
      working_set = stats.cache_entries;
      ASSERT_GT(working_set, 2u);  // capacities 1 and 2 must evict
    }
    if (capacity >= working_set) {
      EXPECT_EQ(stats.cache_evictions, 0u);
      EXPECT_EQ(stats.cache_eviction_misses, 0u);
      continue;
    }
    EXPECT_GT(stats.cache_evictions, 0u);
    // Round 2 re-misses evicted covers: counted as eviction misses, so
    // cold-miss stats stay meaningful under the bound.
    EXPECT_GT(stats.cache_eviction_misses, 0u);
  }
}

TEST(FusionService, RejectsMismatchedPartitionSize) {
  FusionService service = ServiceFixture().make_service();
  FusionRequest bad;
  bad.originals = {Partition::identity(3)};  // top has 64 states
  EXPECT_THROW((void)service.submit("c", std::move(bad)),
               ContractViolation);
}

TEST(FaultPlan, DeterministicForSeed) {
  FaultPlanSpec spec;
  spec.server_count = 9;
  spec.steps = 20;
  spec.crashes = 3;
  spec.byzantine = 1;
  spec.seed = 77;
  const auto a = plan_faults(spec);
  const auto b = plan_faults(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].byzantine, b[i].byzantine);
  }
}

}  // namespace
}  // namespace ffsm
