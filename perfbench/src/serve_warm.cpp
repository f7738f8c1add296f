// serve-warm: open loop with seeded Poisson arrivals against subprocess
// shards whose closure caches were warmed in set-up. After warm-up nearly
// every descent step is a cache read, so wire encode/decode, loopback
// round trips and cluster queueing dominate, and closure evaluation is
// nearly absent.
#include <algorithm>
#include <memory>

#include "partition/lower_cover.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "open_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffsm;

namespace {

/// Offered client arrivals per second, each client asking about every top:
/// a third of the 300/s knee --probe-capacity measured on a quiet 4-CPU
/// x86-64 container (perfbench/README.md), leaving headroom for a host
/// that runs slower while others load it.
constexpr double kArrivalsPerSecond = 100.0;
/// One shard: its worker's main and pool thread plus the submitter and drain
/// threads fill four CPUs (pool sizes derive from nproc).
constexpr std::size_t kShards = 1;
/// A run is cut into this many equal segments, each served by a freshly
/// spawned and warmed tier: set-up time is the median of set-ups spread
/// across the run, and the run spans several worker placements.
constexpr int kSegments = 10;
/// A run whose submitter fell further behind its schedule than this (p99) is
/// invalid: its latencies no longer describe the offered load.
constexpr double kLatenessBoundMs = 20.0;

std::vector<Top> make_tops() {
  std::vector<Top> tops;
  for (const std::uint32_t k : {8u, 9u, 10u, 12u})
    tops.push_back(counter_pair_top(k));
  return tops;
}

/// Pool threads per shard worker. The submitter and drain threads take two
/// CPUs and each worker's main thread computes too; the worker pools
/// share what is left.
std::size_t worker_threads() {
  const std::size_t reserved = 2 + kShards;
  return std::max<std::size_t>(1, (nproc() - std::min(nproc(), reserved)) /
                                      kShards);
}

struct Serving {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<FusionCluster> cluster;
};

Serving make_serving(const std::vector<Top>& tops) {
  Serving serving;
  serving.pool = std::make_unique<ThreadPool>(std::max<std::size_t>(1, kShards - 1));
  BackendConfig config;
  config.kind = BackendConfig::Kind::kSubprocess;
  config.worker_path = PERFBENCH_WORKER_PATH;
  config.service.threads = worker_threads();
  FusionClusterOptions options;
  options.shards = kShards;
  options.pool = serving.pool.get();
  options.backend_factory = make_backend_factory(std::move(config));
  serving.cluster = std::make_unique<FusionCluster>(options);
  for (const Top& top : tops) serving.cluster->add_top(top.key, top.product.top);
  return serving;
}

/// Submits every kind once and drains, twice: the first round fills the
/// caches, the second confirms they serve.
void warm_up(FusionCluster& cluster, const std::vector<Top>& tops,
             const std::vector<RequestKind>& kinds) {
  for (int round = 0; round < 2; ++round) {
    for (const RequestKind& kind : kinds)
      cluster.submit(tops[kind.top].key, "warmup", kind.request(tops[kind.top]));
    const FusionCluster::DrainReport drained = cluster.drain();
    if (drained.responses.size() != kinds.size() || drained.requeued != 0)
      throw BenchFailure("serve-warm warm-up drain failed");
  }
}

/// The offered load: Poisson client arrivals, each client asking about
/// every top at once — one request per top, with that top's f and descent
/// policy drawn in stratified order.
struct Load {
  std::vector<Clock::duration> schedule;  // per request
  std::vector<std::size_t> kind_of;       // per request, into all_kinds()
};

Load make_load(double arrivals_per_s, std::size_t tops, double seconds,
               std::uint64_t seed) {
  constexpr std::size_t kKindsPerTop = 6;  // f in 1..3 x two policies
  std::vector<KindOrder> orders;
  for (std::size_t t = 0; t < tops; ++t)
    orders.emplace_back(kKindsPerTop, seed * 31 + t);
  Load load;
  for (const Clock::duration at : poisson_schedule(arrivals_per_s, seconds, seed))
    for (std::size_t t = 0; t < tops; ++t) {
      load.schedule.push_back(at);
      load.kind_of.push_back(t * kKindsPerTop + orders[t].next());
    }
  return load;
}

struct Phase {
  OpenLoopResult loop;
  FusionCluster::Stats after;
  FusionCluster::Stats start;
};

/// One open-loop phase of `seconds` at the fixed rate.
Phase run_phase(FusionCluster& cluster, const std::vector<Top>& tops,
                const std::vector<RequestKind>& kinds, double seconds,
                std::uint64_t seed, Tracer& submit_tracer,
                Tracer& drain_tracer, Report& report) {
  const Load load = make_load(kArrivalsPerSecond, tops.size(), seconds, seed);
  const std::vector<std::size_t>& kind_of = load.kind_of;

  const SubmitFn submit = [&](std::size_t i) {
    const RequestKind& kind = kinds[kind_of[i]];
    const Top& top = tops[kind.top];
    FusionRequest request = kind.request(top);
    const Tracer::Span span(submit_tracer, "sim.cluster", "submit");
    return cluster.submit(top.key, "client", std::move(request));
  };
  const DrainFn drain =
      [&](const std::function<std::size_t(std::uint64_t)>& index_of) {
        const Tracer::Span round(drain_tracer, "e2e", "drain_round");
        FusionCluster::DrainReport drained;
        {
          const Tracer::Span span(drain_tracer, "sim.cluster", "drain");
          drained = cluster.drain();
        }
        for (std::uint64_t r = 0; r < drained.requeued; ++r)
          report.check(false, "serve-warm drain requeued a request");
        std::vector<std::size_t> served;
        for (const FusionCluster::Response& response : drained.responses) {
          const std::size_t i = index_of(response.ticket);
          const RequestKind& kind = kinds[kind_of[i]];
          report.check(response.result.partitions == kind.oracle.partitions,
                       "serve-warm response differs from the serial oracle "
                       "on " + response.top);
          served.push_back(i);
        }
        return served;
      };

  Phase phase;
  phase.start = cluster.stats();
  phase.loop = run_open_loop(load.schedule, submit, drain);
  phase.after = cluster.stats();
  for (std::size_t i = 0; i < phase.loop.unanswered; ++i)
    report.check(false, "serve-warm request never answered");
  const double lateness = percentile(phase.loop.lateness_ms, 99);
  std::printf("generator lateness p99 %.3f ms, max %.3f ms (bound %.1f ms)\n",
              lateness,
              phase.loop.lateness_ms.empty()
                  ? 0.0
                  : *std::max_element(phase.loop.lateness_ms.begin(),
                                      phase.loop.lateness_ms.end()),
              kLatenessBoundMs);
  if (lateness > kLatenessBoundMs) {
    std::fprintf(stderr,
                 "invalid run: generator lateness p99 %.3f ms exceeds %.1f "
                 "ms\n",
                 lateness, kLatenessBoundMs);
    report.valid = false;
  }
  return phase;
}

struct DirectGenerate {
  double ms = 0.0;      ///< mean wall time per kind
  double cpu_ms = 0.0;  ///< process CPU per kind, pool threads included
};

/// Direct generate_fusion per kind with a warmed cache dedicated to each
/// top: the generation work a warm served request does, without the
/// cluster, wire or queue around it. The first pass warms the caches; the
/// second is measured.
DirectGenerate warm_direct_generate(const std::vector<Top>& tops,
                                    const std::vector<RequestKind>& kinds,
                                    ThreadPool& pool, Tracer& tracer,
                                    Report& report) {
  std::vector<std::unique_ptr<LowerCoverCache>> caches;
  for (std::size_t t = 0; t < tops.size(); ++t)
    caches.push_back(std::make_unique<LowerCoverCache>());
  std::vector<double> samples;
  double cpu_start = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) cpu_start = process_cpu_ms();
    for (const RequestKind& kind : kinds) {
      const Top& top = tops[kind.top];
      GenerateOptions options;
      options.f = kind.f;
      options.policy = kind.policy;
      options.pool = &pool;
      options.cache = caches[kind.top].get();
      const auto start = Clock::now();
      FusionResult result;
      {
        const Tracer::Span span(tracer, "fusion", "generate_fusion");
        result = generate_fusion(top.product.top, top.originals, options);
      }
      if (pass == 1) samples.push_back(ms_since(start));
      report.check(result.partitions == kind.oracle.partitions,
                   "direct warm generate_fusion differs from the oracle");
    }
  }
  return {mean(samples), (process_cpu_ms() - cpu_start) /
                             static_cast<double>(kinds.size())};
}

}  // namespace

void run_serve_warm(const Args& args, Report& report) {
  const std::vector<Top> tops = make_tops();
  std::vector<RequestKind> kinds = all_kinds(tops.size());
  compute_oracles(tops, kinds);  // untimed

  // Set-up: spawn the shard workers and warm their caches.
  const auto set_up = [&](std::vector<double>& setup_s) {
    const auto start = Clock::now();
    Serving serving = make_serving(tops);
    warm_up(*serving.cluster, tops, kinds);
    setup_s.push_back(ms_since(start) / 1e3);
    return serving;
  };
  std::vector<double> setup_s;
  Tracer untraced(false);
  if (!args.trace) {
    const double segment_s = args.seconds / kSegments;
    std::vector<double> latency;
    double elapsed_s = 0.0;
    for (int s = 0; s < kSegments; ++s) {
      Serving serving = set_up(setup_s);
      const Phase phase =
          run_phase(*serving.cluster, tops, kinds, segment_s,
                    args.seed + static_cast<std::uint64_t>(s), untraced,
                    untraced, report);
      latency.insert(latency.end(), phase.loop.latency_ms.begin(),
                     phase.loop.latency_ms.end());
      elapsed_s += phase.loop.elapsed_s;
      serving.cluster->shutdown();  // reaps the workers: peak RSS known
    }
    report.set("setup_s", median(setup_s), "s");
    report.set("throughput_rps", static_cast<double>(latency.size()) / elapsed_s,
               "1/s");
    report.set("latency_p50_ms", percentile(latency, 50), "ms");
    std::printf("latency p90 %.3f ms, p99 %.3f ms over %zu requests\n",
                percentile(latency, 90), percentile(latency, 99),
                latency.size());
    report.set("peak_rss_mb", self_peak_rss_mb() + children_peak_rss_mb(),
               "MB");
    return;
  }

  // The traced run serves from one tier throughout, so its traced and
  // untraced halves share a worker placement.
  Serving serving = set_up(setup_s);
  FusionCluster& cluster = *serving.cluster;
  const Phase plain = run_phase(cluster, tops, kinds, args.seconds / 2,
                                args.seed, untraced, untraced, report);
  Tracer submit_tracer(true, "submitter");
  Tracer drain_tracer(true, "drainer");
  const Phase traced =
      run_phase(cluster, tops, kinds, args.seconds / 2, args.seed + 1,
                submit_tracer, drain_tracer, report);
  drain_tracer.merge(submit_tracer);
  std::printf("-- serve-warm layer self time (traced phase) --\n");
  report.set("trace.unaccounted_share",
             print_layer_table(drain_tracer, "e2e"), "ratio");
  const double p50 = percentile(plain.loop.latency_ms, 50);
  report.set("obs.trace_overhead",
             percentile(traced.loop.latency_ms, 50) / p50, "ratio");

  const OpenLoopResult& loop = plain.loop;
  report.set("tail.latency_p90_ms", percentile(loop.latency_ms, 90), "ms");
  report.set("tail.latency_p99_ms", percentile(loop.latency_ms, 99), "ms");
  report.set("loadgen.lateness_ms_p99", percentile(loop.lateness_ms, 99),
             "ms");
  report.set("cluster.queue_wait_ms_p50", percentile(loop.queue_wait_ms, 50),
             "ms");
  report.set("cluster.queue_wait_ms_p99", percentile(loop.queue_wait_ms, 99),
             "ms");
  report.set("cluster.drain_ms_p50", percentile(loop.drain_ms, 50), "ms");
  report.set("cluster.batch_size_mean", mean(loop.batch_size), "count");
  const auto delta = [&](std::uint64_t FusionCluster::Stats::*field) {
    return static_cast<double>(plain.after.*field - plain.start.*field);
  };
  const double hits = delta(&FusionCluster::Stats::cache_hits);
  const double lookups = hits +
                         delta(&FusionCluster::Stats::cache_cold_misses) +
                         delta(&FusionCluster::Stats::cache_eviction_misses);
  report.set("partition.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0,
             "ratio");
  report.set("partition.cache_evictions",
             delta(&FusionCluster::Stats::cache_evictions), "count");
  const FusionCluster::Stats final_stats = cluster.stats();
  report.set("backend.restarts", static_cast<double>(final_stats.restarts),
             "count");
  report.set("backend.requeued",
             static_cast<double>(final_stats.requests_requeued), "count");

  // One-request drains against the warm workers.
  std::vector<double> roundtrip_us;
  for (int i = 0; i < 200; ++i) {
    const RequestKind& kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
    const Top& top = tops[kind.top];
    const auto start = Clock::now();
    cluster.submit(top.key, "probe", kind.request(top));
    const FusionCluster::DrainReport drained = cluster.drain();
    roundtrip_us.push_back(ms_since(start) * 1e3);
    report.check(drained.responses.size() == 1 &&
                     drained.responses[0].result.partitions ==
                         kind.oracle.partitions,
                 "serve-warm one-request drain differs from the oracle");
  }
  report.set("backend.warm_roundtrip_us", median(roundtrip_us), "us");
  cluster.shutdown();

  ThreadPool layer_pool(pool_threads());
  Tracer layer_tracer(true, "layers");
  const DirectGenerate direct =
      warm_direct_generate(tops, kinds, layer_pool, layer_tracer, report);
  report.set("fusion.generate_ms", direct.ms, "ms");
  report.set("fusion.cpu_ms_per_request", direct.cpu_ms, "ms");
  report.set("cluster.overhead_ms", p50 - direct.ms, "ms");
  double closures = 0.0, steps = 0.0;
  for (const RequestKind& kind : kinds) {
    closures += static_cast<double>(kind.oracle.stats.closures_evaluated);
    steps += static_cast<double>(kind.oracle.stats.descent_steps);
  }
  report.set("fusion.closures_evaluated",
             closures / static_cast<double>(kinds.size()), "count");
  report.set("fusion.descent_steps",
             steps / static_cast<double>(kinds.size()), "count");
  measure_layers(tops, layer_pool, wire_sample(tops, kinds), layer_tracer,
                 report);
  drain_tracer.merge(layer_tracer);
  write_trace(drain_tracer, args.out_dir + "/trace-serve-warm.json");
}

void probe_serve_capacity(const Args& args) {
  const std::vector<Top> tops = make_tops();
  std::vector<RequestKind> kinds = all_kinds(tops.size());
  Serving serving = make_serving(tops);
  warm_up(*serving.cluster, tops, kinds);
  compute_oracles(tops, kinds);
  Tracer untraced(false);
  std::printf("%10s %12s %12s %10s %10s %10s %10s\n", "clients/s",
              "requests/s", "answered/s", "p50 ms", "p99 ms", "late p99",
              "batch");
  for (const double rate :
       {25.0, 50.0, 100.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1200.0}) {
    const Load load = make_load(rate, tops.size(), args.seconds, args.seed);
    const std::vector<std::size_t>& kind_of = load.kind_of;
    FusionCluster& cluster = *serving.cluster;
    const OpenLoopResult loop = run_open_loop(
        load.schedule,
        [&](std::size_t i) {
          const RequestKind& kind = kinds[kind_of[i]];
          return cluster.submit(tops[kind.top].key, "client",
                                kind.request(tops[kind.top]));
        },
        [&](const std::function<std::size_t(std::uint64_t)>& index_of) {
          std::vector<std::size_t> served;
          for (const auto& response : cluster.drain().responses)
            served.push_back(index_of(response.ticket));
          return served;
        });
    std::printf("%10.0f %12.0f %12.1f %10.3f %10.3f %10.3f %10.1f\n", rate,
                rate * static_cast<double>(tops.size()),
                static_cast<double>(loop.latency_ms.size()) / loop.elapsed_s,
                percentile(loop.latency_ms, 50),
                percentile(loop.latency_ms, 99),
                percentile(loop.lateness_ms, 99), mean(loop.batch_size));
  }
  serving.cluster->shutdown();
}

}  // namespace perfbench
