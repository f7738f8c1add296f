// ffsm_perfbench: the repository benchmark.
//
//   ffsm_perfbench --workload <serve-warm|recover> --seed <n>
//                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//   ffsm_perfbench --probe-capacity --seconds <s> --seed <n>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and writes a Chrome trace into
// --out-dir. Every run checks every output against a serial oracle or the
// ghost, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// End-to-end metrics, reported by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"throughput_rps", "1/s", "higher"},
    {"latency_p50_ms", "ms", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

/// Per-layer metrics, reported by every traced run. A workload that does
/// not exercise a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"fsm.cross_product_ms", "ms", "lower"},
    {"partition.lower_cover_ms", "ms", "lower"},
    {"partition.closure_ns_per_pair", "ns", "lower"},
    {"partition.cache_find_ns", "ns", "lower"},
    {"partition.cache_insert_ns", "ns", "lower"},
    {"partition.cache_hit_rate", "ratio", "higher"},
    {"partition.cache_evictions", "count", "lower"},
    {"fault.graph_build_us", "us", "lower"},
    {"fusion.generate_ms", "ms", "lower"},
    {"fusion.closures_evaluated", "count", "lower"},
    {"fusion.descent_steps", "count", "lower"},
    {"fusion.cpu_ms_per_request", "ms", "lower"},
    {"fusion.backup_states", "states", "lower"},
    {"util.pool_fanout_us", "us", "lower"},
    {"cluster.queue_wait_ms_p50", "ms", "lower"},
    {"cluster.queue_wait_ms_p99", "ms", "lower"},
    {"cluster.drain_ms_p50", "ms", "lower"},
    {"cluster.batch_size_mean", "count", "higher"},
    {"cluster.overhead_ms", "ms", "lower"},
    {"wire.encode_MBps", "MB/s", "higher"},
    {"wire.decode_MBps", "MB/s", "higher"},
    {"wire.request_bytes", "bytes", "lower"},
    {"wire.response_bytes", "bytes", "lower"},
    {"net.loopback_rtt_us", "us", "lower"},
    {"backend.warm_roundtrip_us", "us", "lower"},
    {"backend.restarts", "count", "lower"},
    {"backend.requeued", "count", "lower"},
    {"system.apply_ns_per_event", "ns", "lower"},
    {"recovery.decode_us_p50", "us", "lower"},
    {"recovery.decode_us_p99", "us", "lower"},
    {"recovery.vote_margin_min", "count", "higher"},
    {"recovery.replay_us", "us", "lower"},
    {"replication.backup_states", "states", "lower"},
    {"loadgen.lateness_ms_p99", "ms", "lower"},
    {"tail.latency_p90_ms", "ms", "lower"},
    {"tail.latency_p99_ms", "ms", "lower"},
    {"obs.trace_overhead", "ratio", "lower"},
    {"trace.unaccounted_share", "ratio", "lower"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ffsm_perfbench: %s\nusage: ffsm_perfbench --workload "
               "<serve-warm|recover> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n"
               "       ffsm_perfbench --probe-capacity --seconds <s> "
               "--seed <n>\n",
               why);
  std::exit(2);
}

/// JSON string literal of `text` (metric names and units are plain ASCII;
/// only quotes and backslashes need escaping).
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool probe = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe-capacity") {
      probe = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  // A time from an unoptimized build measures the compiler, not the code.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "ffsm_perfbench: refusing to report from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  if (probe) {
    if (!have_seconds || !have_seed) usage("--probe-capacity needs --seconds and --seed");
    perfbench::probe_serve_capacity(args);
    return 0;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  std::printf("run workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
              "build=%s compiler=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, perfbench::nproc(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  Report report;
  try {
    if (args.workload == "serve-warm") {
      perfbench::run_serve_warm(args, report);
    } else if (args.workload == "recover") {
      perfbench::run_recover(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffsm_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  // Exactly the metric set of this run's kind, in table order; layers a
  // workload does not exercise report 0.
  std::string metrics;
  std::string described;
  for (const MetricSpec& spec : args.trace ? std::span<const MetricSpec>(kPerLayer)
                                           : std::span<const MetricSpec>(kEndToEnd)) {
    const auto found = report.metrics.find(spec.name);
    const double value = found == report.metrics.end() ? 0.0 : found->second.value;
    if (found != report.metrics.end() && found->second.unit != spec.unit) {
      std::fprintf(stderr, "ffsm_perfbench: %s measured in %s, declared %s\n",
                   spec.name, found->second.unit.c_str(), spec.unit);
      return 1;
    }
    std::printf("metric %-32s %16.6f %-6s (%s is better)\n", spec.name, value,
                spec.unit, spec.better);
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(spec.name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(spec.unit) + "}";
    if (!described.empty()) described += ", ";
    described += quoted(spec.name) + ": {\"unit\": " + quoted(spec.unit) +
                 ", \"better\": " + quoted(spec.better) + "}";
  }
  if (report.attempted == 0) report.check(false, "no output was checked");
  const bool correct = report.valid && report.failed == 0;
  std::printf("{\"run\": {\"workload\": %s, \"seed\": %llu, \"nproc\": %zu, "
              "\"build_type\": %s, \"compiler\": %s, \"trace\": %d}, "
              "\"metrics\": {%s}}\n",
              quoted(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), perfbench::nproc(),
              quoted(PERFBENCH_BUILD_TYPE).c_str(),
              quoted(PERFBENCH_COMPILER).c_str(), args.trace ? 1 : 0,
              described.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
