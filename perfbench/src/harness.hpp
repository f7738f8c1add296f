// Shared plumbing of the repository benchmark: run arguments, the metric
// report every workload fills in, sample statistics, process resource
// readings, and the benchmark-side span tracer used by traced runs.
//
// Everything here sits *outside* the ffsm library: the tracer times calls
// into the library's public functions and never reaches into it, so the
// untraced runs measure the program exactly as shipped.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory traced runs write their Chrome trace into.
  std::string out_dir = ".";
};

/// A set-up failure that makes measuring meaningless: the run stops and
/// exits non-zero. (A wrong answer during measurement is counted by
/// Report::check instead, and the run reports correct=false.)
class BenchFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Named metrics of one run plus the attempted/failed tally.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run itself is invalid (generator fell behind its
  /// schedule), independent of output checks.
  bool valid = true;

  void set(const std::string& name, double value, std::string unit) {
    metrics[name] = {value, std::move(unit)};
  }

  /// Records one output check; prints the first few mismatches.
  void check(bool ok, std::string_view what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5)
      std::fprintf(stderr, "output check failed: %.*s\n",
                   static_cast<int>(what.size()), what.data());
  }
};

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (q in [0, 100]) of `samples`; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> samples,
                                       double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : (samples[mid - 1] + samples[mid]) / 2.0;
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Times `fn` `reps` times and returns the median, in milliseconds.
template <typename Fn>
[[nodiscard]] double median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    samples.push_back(ms_since(start));
  }
  return median(std::move(samples));
}

// ------------------------------------------------------ process resources

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t nproc();

/// Peak resident set of this process, MB.
[[nodiscard]] double self_peak_rss_mb();

/// Peak resident set of the largest reaped child process, MB (0 before any
/// child was reaped).
[[nodiscard]] double children_peak_rss_mb();

/// User + system CPU time consumed by this process so far, ms.
[[nodiscard]] double process_cpu_ms();

// ----------------------------------------------------------------- tracing

/// Benchmark-side spans around calls into the library. Spans nest by an
/// explicit stack per Tracer (one Tracer per thread); each completed span
/// adds its duration to its layer's total and its self time (duration
/// minus the time its child spans cover) to the layer's self time. The
/// first `capacity` spans are kept for the Chrome trace export.
///
/// A disabled Tracer makes every Span a pointer check, so untraced runs
/// pay nothing.
class Tracer {
 public:
  struct LayerTotals {
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit Tracer(bool enabled, std::string lane = "main",
                  std::size_t capacity = 50000)
      : enabled_(enabled), lane_(std::move(lane)), capacity_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// One open span; closes on destruction. `layer` names the module as in
  /// CMakeLists.txt ("sim.cluster", "fusion", ...), `call` the public
  /// function. Both must outlive the span (string literals).
  class Span {
   public:
    Span(Tracer& tracer, std::string_view layer, std::string_view call)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) tracer_->open(layer, call);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { finish(); }
    /// Closes the span now and returns its duration (ms); idempotent.
    double finish() {
      if (tracer_ == nullptr) return 0.0;
      Tracer* t = tracer_;
      tracer_ = nullptr;
      return t->close();
    }

   private:
    Tracer* tracer_;
  };

  using LayerMap = std::map<std::string, LayerTotals, std::less<>>;

  [[nodiscard]] const LayerMap& layers() const {
    return layers_;
  }
  [[nodiscard]] const std::vector<ffsm::obs::TraceSpan>& spans() const {
    return spans_;
  }

  /// Folds another thread's tracer into this one (totals and spans).
  void merge(const Tracer& other);

 private:
  struct Open {
    std::string_view layer;
    std::string_view call;
    Clock::time_point start;
    double child_ms = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
  };

  void open(std::string_view layer, std::string_view call);
  double close();

  bool enabled_;
  std::string lane_;
  std::size_t capacity_;
  std::vector<Open> stack_;
  LayerMap layers_;
  std::vector<ffsm::obs::TraceSpan> spans_;
};

/// Prints the per-layer self-time table and returns the share of `root`
/// self time in its total — the part of end-to-end time no layer span
/// accounts for.
double print_layer_table(const Tracer& tracer, std::string_view root_layer);

/// Writes the tracer's spans as Chrome trace JSON (obs::write_chrome_trace)
/// to `path`; returns false when the file cannot be written.
bool write_trace(const Tracer& tracer, const std::string& path);

}  // namespace perfbench
