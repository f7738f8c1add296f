// recover: closed loop over a FusedSystem of four catalog machines with
// f = 2 — the paper's own runtime. Every round delivers a seeded burst of
// events, injects a seeded fault set within Theorem 6's bound (up to f
// crashes, or up to f/2 liars colluding on most_confusable_state()), then
// runs Algorithm 3 through recover() and checks the result against the
// ghost with verify(). No generation or wire code runs in the loop.
#include <algorithm>
#include <memory>
#include <span>

#include "fsm/machine_catalog.hpp"
#include "replication/replication.hpp"
#include "sim/system.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffsm;

namespace {

constexpr std::uint32_t kF = 2;
constexpr std::size_t kEventsPerRound = 64;
/// A run is cut into this many equal segments, each on a freshly set-up
/// system: set-up time is the median of set-ups spread across the run, and
/// throughput and round latency are medians of the segments' figures (a run
/// has millions of rounds, too many to keep).
constexpr int kSegments = 10;

std::vector<Dfsm> make_machines() {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mesi(alphabet));
  machines.push_back(make_tcp(alphabet));
  machines.push_back(make_paper_machine_a(alphabet));
  machines.push_back(make_paper_machine_b(alphabet));
  return machines;
}

std::unique_ptr<FusedSystem> make_system(ThreadPool& pool, bool journal) {
  FusedSystemOptions options;
  options.f = kF;
  options.keep_event_log = journal;
  options.generation.pool = &pool;
  return std::make_unique<FusedSystem>(make_machines(), options);
}

/// A pool and the fused system generated on it.
struct Fused {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<FusedSystem> system;
};

/// Replaces `fused` with a fresh pool and system (cross product +
/// Algorithm 2); returns the set-up time in seconds.
double set_up(Fused& fused, Report& report) {
  fused.system.reset();
  fused.pool.reset();
  const auto start = Clock::now();
  fused.pool = std::make_unique<ThreadPool>(pool_threads());
  fused.system = make_system(*fused.pool, false);
  const double seconds = ms_since(start) / 1e3;
  report.check(fused.system->backup_count() == kF && fused.system->verify(),
               "fused system set-up");
  return seconds;
}

/// max - runner-up over the recovery vote counts.
std::uint32_t vote_margin(const RecoveryResult& result) {
  std::uint32_t first = 0, second = 0;
  for (const std::uint32_t c : result.counts) {
    if (c > first) {
      second = first;
      first = c;
    } else if (c > second) {
      second = c;
    }
  }
  return first - second;
}

/// Rounds of one or more segments.
struct Phase {
  /// Rounds per second and round latency percentiles (ms), one entry per
  /// segment.
  std::vector<double> rate, p50, p90, p99;
  std::vector<double> decode_us;
  std::uint32_t margin_min = ~0u;
  std::size_t rounds = 0;
};

/// Runs rounds back to back for `seconds` as one segment of `phase`,
/// checking every recovery.
void run_segment(FusedSystem& system, Xoshiro256& rng, double seconds,
                 Tracer& tracer, Report& report, Phase& phase) {
  const std::span<const EventId> events = system.top().events();
  const std::size_t servers = system.servers().size();
  std::vector<std::size_t> victims(servers);
  std::vector<double> round_ms;
  const auto start = Clock::now();
  while (ms_since(start) < seconds * 1e3) {
    const auto round_begin = Clock::now();
    Tracer::Span round(tracer, "e2e", "round");
    for (std::size_t e = 0; e < kEventsPerRound; ++e) {
      const EventId event = events[rng.below(events.size())];
      const Tracer::Span span(tracer, "sim.system", "apply");
      system.apply(event);
    }

    // Distinct victims: a seeded partial shuffle of the server indices.
    for (std::size_t i = 0; i < servers; ++i) victims[i] = i;
    for (std::size_t i = 0; i < kF; ++i)
      std::swap(victims[i], victims[i + rng.below(servers - i)]);
    if (rng.chance(0.5)) {
      const std::size_t crashes = 1 + rng.below(kF);
      for (std::size_t i = 0; i < crashes; ++i) {
        const Tracer::Span span(tracer, "sim.system", "crash");
        system.crash(victims[i]);
      }
    } else {
      State target = 0;
      {
        const Tracer::Span span(tracer, "sim.system", "most_confusable_state");
        target = system.most_confusable_state();
      }
      for (std::size_t i = 0; i < kF / 2; ++i) {
        const Tracer::Span span(tracer, "sim.system", "corrupt");
        system.corrupt(victims[i], ByzantineStrategy::kColluding, rng, target);
      }
    }

    // The free Algorithm 3 decode on the very reports recover() will see.
    // It is tracing work, so its time stays out of the round latency.
    double untimed_ms = 0.0;
    if (tracer.enabled()) {
      const auto begin = Clock::now();
      {
        std::vector<MachineReport> reports;
        {
          const Tracer::Span span(tracer, "sim.system", "reports");
          reports = system.reports();
        }
        const Tracer::Span span(tracer, "recovery", "recover");
        const auto decode_begin = Clock::now();
        const RecoveryResult decoded =
            recover(system.top().size(), system.partitions(), reports);
        phase.decode_us.push_back(ms_since(decode_begin) * 1e3);
        phase.margin_min = std::min(phase.margin_min, vote_margin(decoded));
      }
      untimed_ms = ms_since(begin);
    }
    RecoveryResult result;
    {
      const Tracer::Span span(tracer, "sim.system", "recover");
      result = system.recover();
    }
    bool verified = false;
    {
      const Tracer::Span span(tracer, "sim.system", "verify");
      verified = system.verify();
    }
    round.finish();
    round_ms.push_back(ms_since(round_begin) - untimed_ms);
    report.check(result.unique &&
                     result.top_state == system.ghost_top_state() && verified,
                 "recovery not unique or fails verify() against the ghost");
  }
  const double elapsed_s = ms_since(start) / 1e3;
  phase.rounds += round_ms.size();
  phase.rate.push_back(static_cast<double>(round_ms.size()) / elapsed_s);
  phase.p50.push_back(percentile(round_ms, 50));
  phase.p90.push_back(percentile(round_ms, 90));
  phase.p99.push_back(percentile(std::move(round_ms), 99));
}

/// Replay-based recovery (the journaling baseline) of each server from a
/// fixed-length journal, microseconds (median).
double replay_us(ThreadPool& pool, Xoshiro256& rng) {
  const std::unique_ptr<FusedSystem> system = make_system(pool, true);
  const std::span<const EventId> events = system->top().events();
  for (int e = 0; e < 20000; ++e)
    system->apply(events[rng.below(events.size())]);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep)
    for (std::size_t s = 0; s < system->servers().size(); ++s) {
      system->crash(s);
      const auto start = Clock::now();
      (void)system->recover_via_replay(s);
      samples.push_back(ms_since(start) * 1e3);
    }
  if (!system->verify()) throw BenchFailure("replay recovery fails verify()");
  return median(std::move(samples));
}

}  // namespace

void run_recover(const Args& args, Report& report) {
  Xoshiro256 rng(args.seed);
  Fused fused;
  Tracer untraced(false);
  const double segment_s = args.seconds / kSegments;
  if (!args.trace) {
    std::vector<double> setup_s;
    Phase phase;
    for (int s = 0; s < kSegments; ++s) {
      setup_s.push_back(set_up(fused, report));
      run_segment(*fused.system, rng, segment_s, untraced, report, phase);
    }
    report.set("setup_s", median(setup_s), "s");
    report.set("throughput_rps", median(phase.rate), "1/s");
    report.set("latency_p50_ms", median(phase.p50), "ms");
    std::printf("round latency p90 %.6f ms, p99 %.6f ms (medians of "
                "segments) over %zu rounds of %zu events\n",
                median(phase.p90), median(phase.p99), phase.rounds,
                kEventsPerRound);
    report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  // Traced run: one system, half its segments untraced, half traced.
  (void)set_up(fused, report);
  FusedSystem* const system = fused.system.get();
  Phase plain, traced;
  for (int s = 0; s < kSegments / 2; ++s)
    run_segment(*system, rng, segment_s, untraced, report, plain);
  Tracer tracer(true, "recover");
  for (int s = 0; s < kSegments / 2; ++s)
    run_segment(*system, rng, segment_s, tracer, report, traced);
  std::printf("-- recover layer self time (traced phase) --\n");
  report.set("trace.unaccounted_share", print_layer_table(tracer, "e2e"),
             "ratio");
  report.set("obs.trace_overhead", median(traced.p50) / median(plain.p50),
             "ratio");

  report.set("tail.latency_p90_ms", median(plain.p90), "ms");
  report.set("tail.latency_p99_ms", median(plain.p99), "ms");
  report.set("recovery.decode_us_p50", percentile(traced.decode_us, 50),
             "us");
  report.set("recovery.decode_us_p99", percentile(traced.decode_us, 99),
             "us");
  report.set("recovery.vote_margin_min", traced.margin_min, "count");

  // FusedSystem::apply in isolation.
  {
    const std::span<const EventId> events = system->top().events();
    std::vector<EventId> stream(100000);
    for (EventId& e : stream) e = events[rng.below(events.size())];
    const double ms = median_ms(5, [&] {
      for (const EventId e : stream) system->apply(e);
    });
    report.set("system.apply_ns_per_event",
               ms * 1e6 / static_cast<double>(stream.size()), "ns");
  }
  report.set("recovery.replay_us", replay_us(*fused.pool, rng), "us");

  // Backup state space: fusion (the system's backups) vs replication.
  const std::vector<Dfsm> machines = make_machines();
  std::vector<Dfsm> backups;
  for (std::size_t s = machines.size(); s < system->servers().size(); ++s)
    backups.push_back(system->servers()[s].machine());
  report.set("fusion.backup_states",
             static_cast<double>(fusion_state_space(backups)), "states");
  report.set("replication.backup_states",
             static_cast<double>(
                 replication_state_space(machines, kF, FaultModel::kCrash)),
             "states");

  // Algorithm 2 on the system's top, directly and as the serial oracle.
  std::vector<Top> tops;
  tops.push_back(make_top("fused", make_machines()));
  const Top& top = tops.front();
  std::vector<RequestKind> kinds(1);
  kinds[0].f = kF;
  compute_oracles(tops, kinds);
  GenerateOptions options;
  options.f = kF;
  options.pool = fused.pool.get();
  FusionResult direct;
  Tracer layer_tracer(true, "layers");
  constexpr int kGenerateReps = 3;
  const double cpu_start = process_cpu_ms();  // this process: pool included
  report.set("fusion.generate_ms", median_ms(kGenerateReps, [&] {
               const Tracer::Span span(layer_tracer, "fusion",
                                       "generate_fusion");
               direct = generate_fusion(top.product.top, top.originals,
                                        options);
             }),
             "ms");
  report.set("fusion.cpu_ms_per_request",
             (process_cpu_ms() - cpu_start) / kGenerateReps, "ms");
  report.check(direct.partitions == kinds[0].oracle.partitions,
               "direct generate_fusion differs from the serial oracle");
  report.set("fusion.closures_evaluated",
             static_cast<double>(kinds[0].oracle.stats.closures_evaluated),
             "count");
  report.set("fusion.descent_steps",
             static_cast<double>(kinds[0].oracle.stats.descent_steps),
             "count");
  measure_layers(tops, *fused.pool, wire_sample(tops, kinds), layer_tracer,
                 report);
  tracer.merge(layer_tracer);
  write_trace(tracer, args.out_dir + "/trace-recover.json");
}

}  // namespace perfbench
