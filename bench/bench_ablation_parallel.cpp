// Ablation E18: thread-pool fan-out of fault-graph construction (rows of
// the triangular weight matrix), swept over explicit pool sizes so the
// speedup curve is visible on one machine. The lower cover beside it runs
// its sink search serially at every pool size (only its maximality filter
// takes the pool), and must come out the same at each.
#include "bench_support.hpp"

#include "fault/fault_graph.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "partition/lower_cover.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ffsm;

std::vector<Partition> random_partitions(std::uint32_t n,
                                         std::size_t machines,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Partition> out;
  for (std::size_t k = 0; k < machines; ++k) {
    std::vector<std::uint32_t> assignment(n);
    const std::uint64_t blocks = 2 + rng.below(n - 1);
    for (auto& a : assignment)
      a = static_cast<std::uint32_t>(rng.below(blocks));
    out.emplace_back(std::move(assignment));
  }
  return out;
}

Dfsm big_counter_top() {
  return bench::counter_pair_product(16).top;  // 256 states
}

void report() {
  bench::JsonReporter json("ablation_parallel");
  std::printf("== Ablation: parallel speedup ==\n");
  const Dfsm top = big_counter_top();
  const Partition identity = Partition::identity(top.size());
  const auto parts = random_partitions(2048, 16, 9);

  std::vector<Partition> serial_cover;
  TextTable table({"threads", "lower_cover(256-top) ms, serial search",
                   "fault graph(2048,16) ms"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    ThreadPool pool(threads);
    LowerCoverOptions cover_options;
    cover_options.pool = &pool;

    std::vector<Partition> cover;
    const double cover_ms = json.measure_ms(
        std::string("lower_cover_t").append(std::to_string(threads)),
        [&] { cover = lower_cover(top, identity, cover_options); }, 3, 1);
    if (threads == 1)
      serial_cover = cover;
    else
      bench::require(cover == serial_cover,
                     "lower cover independent of thread count");

    FaultGraphOptions graph_options;
    graph_options.pool = &pool;
    const double graph_ms = json.measure_ms(
        std::string("fault_graph_t").append(std::to_string(threads)),
        [&] {
          benchmark::DoNotOptimize(
              FaultGraph::build(2048, parts, graph_options));
        },
        3, 1);

    table.add_row({std::to_string(threads), std::to_string(cover_ms),
                   std::to_string(graph_ms)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Lower-cover ablation: the oracle (tests/oracle.hpp: a fresh
  // merge_closure per block pair, then dedup and a naive maximality filter)
  // against lower_cover (a sink-component search over the block-pair graph
  // that closes one pair per sink), both on the calling thread. Covers must
  // stay bit-identical.
  std::printf("== Ablation: oracle vs sink-search lower cover ==\n");
  {
    LowerCoverOptions serial;
    serial.parallel = false;

    std::vector<Partition> oracle_result;
    std::vector<Partition> search_result;
    const double oracle_ms = json.measure_ms(
        "evaluator_oracle",
        [&] {
          oracle_result = ffsm::testing::oracle_lower_cover(top, identity);
        },
        3, 1);
    const double search_ms = json.measure_ms(
        "evaluator_sink_search",
        [&] { search_result = lower_cover(top, identity, serial); }, 3, 1);
    bench::require(oracle_result == search_result,
                   "sink search emits bit-identical covers");

    obs::Obs obs;
    serial.obs = &obs;
    (void)lower_cover(top, identity, serial);
    const std::uint64_t sinks =
        obs.snapshot().counters["gen.sink_components"];
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(top.size()) * (top.size() - 1) / 2;
    const double speedup = search_ms > 0 ? oracle_ms / search_ms : 0.0;
    std::printf("lower_cover(256-top): oracle %.2f ms, sink search %.2f ms "
                "(%.2fx); %llu sink components among %llu pairs, one "
                "closure each\n\n",
                oracle_ms, search_ms, speedup,
                static_cast<unsigned long long>(sinks),
                static_cast<unsigned long long>(pairs));
    json.add_metric("evaluator", "sink_search_speedup", speedup);
  }

  // Batched multi-client fan-out: many fusion requests sharing one top,
  // served by generate_fusion_batch with a shared closure cache, against
  // the same requests served one by one without sharing.
  std::printf("== Ablation: batched requests vs one-by-one ==\n");
  {
    const CrossProduct cp = bench::counter_pair_product(12);
    const auto originals = bench::original_partitions(cp);

    std::vector<FusionRequest> requests;
    for (std::uint32_t c = 0; c < 8; ++c) {
      FusionRequest r;
      r.originals = originals;
      r.f = 1 + c % 3;
      requests.push_back(std::move(r));
    }

    ThreadPool pool(8);
    const double one_by_one_ms = json.measure_ms(
        "requests8_one_by_one",
        [&] {
          for (const FusionRequest& r : requests) {
            GenerateOptions options;
            options.f = r.f;
            options.policy = r.policy;
            options.pool = &pool;
            benchmark::DoNotOptimize(
                generate_fusion(cp.top, r.originals, options));
          }
        },
        3, 1);
    const double batched_ms = json.measure_ms(
        "requests8_batched",
        [&] {
          BatchOptions options;
          options.pool = &pool;
          benchmark::DoNotOptimize(
              generate_fusion_batch(cp.top, requests, options));
        },
        3, 1);
    std::printf("8 requests: one-by-one %.2f ms, batched %.2f ms "
                "(%.2fx)\n\n",
                one_by_one_ms, batched_ms,
                batched_ms > 0 ? one_by_one_ms / batched_ms : 0.0);
    json.add_metric("requests8", "batch_speedup",
                    batched_ms > 0 ? one_by_one_ms / batched_ms : 0.0);
  }
}

void fault_graph_threads(benchmark::State& state) {
  const auto parts = random_partitions(2048, 16, 9);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  FaultGraphOptions options;
  options.pool = &pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(FaultGraph::build(2048, parts, options));
}
BENCHMARK(fault_graph_threads)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void serial_vs_parallel_generation(benchmark::State& state) {
  // End-to-end Algorithm 2 with and without the pool (fault-graph build
  // and maximality filters).
  const CrossProduct cp = bench::counter_pair_product(12);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  options.parallel = state.range(0) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.SetLabel(options.parallel ? "parallel" : "serial");
}
BENCHMARK(serial_vs_parallel_generation)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

FFSM_BENCH_MAIN(report)
