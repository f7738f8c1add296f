#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

/// One epoch and one id space for every tracer of the run, so merged spans
/// line up in one timeline and parent ids stay unambiguous.
const Clock::time_point kEpoch = Clock::now();
std::atomic<std::uint64_t> next_span_id{1};

double rusage_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double self_peak_rss_mb() { return rusage_mb(RUSAGE_SELF); }

double children_peak_rss_mb() { return rusage_mb(RUSAGE_CHILDREN); }

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

void Tracer::open(std::string_view layer, std::string_view call) {
  Open span;
  span.layer = layer;
  span.call = call;
  span.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = stack_.empty() ? 0 : stack_.back().id;
  span.start = Clock::now();
  stack_.push_back(span);
}

double Tracer::close() {
  const auto end = Clock::now();
  const Open span = stack_.back();
  stack_.pop_back();
  const double duration = ms_between(span.start, end);
  auto slot = layers_.find(span.layer);
  if (slot == layers_.end())
    slot = layers_.emplace(std::string(span.layer), LayerTotals{}).first;
  LayerTotals& totals = slot->second;
  ++totals.calls;
  totals.total_ms += duration;
  totals.self_ms += duration - span.child_ms;
  if (!stack_.empty()) stack_.back().child_ms += duration;
  if (spans_.size() < capacity_) {
    ffsm::obs::TraceSpan out;
    out.name = std::string(span.layer) + "/" + std::string(span.call);
    out.source = "perfbench";
    out.top = lane_;
    const auto us = [](Clock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    out.start_us = us(span.start - kEpoch);
    out.duration_us = us(end - span.start);
    out.id = span.id;
    out.parent = span.parent;
    spans_.push_back(std::move(out));
  }
  return duration;
}

void Tracer::merge(const Tracer& other) {
  for (const auto& [layer, totals] : other.layers_) {
    LayerTotals& mine = layers_[layer];
    mine.calls += totals.calls;
    mine.total_ms += totals.total_ms;
    mine.self_ms += totals.self_ms;
  }
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

double print_layer_table(const Tracer& tracer, std::string_view root_layer) {
  const auto root = tracer.layers().find(root_layer);
  const double end_to_end =
      root == tracer.layers().end() ? 0.0 : root->second.total_ms;
  std::printf("%-14s %10s %12s %12s %8s\n", "layer", "calls", "total ms",
              "self ms", "self %");
  for (const auto& [layer, totals] : tracer.layers())
    std::printf("%-14s %10llu %12.2f %12.2f %7.1f%%\n", layer.c_str(),
                static_cast<unsigned long long>(totals.calls),
                totals.total_ms, totals.self_ms,
                end_to_end > 0 ? 100.0 * totals.self_ms / end_to_end : 0.0);
  if (root == tracer.layers().end() || end_to_end <= 0.0) return 0.0;
  return root->second.self_ms / end_to_end;
}

bool write_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  ffsm::obs::write_chrome_trace(out, tracer.spans());
  return static_cast<bool>(out);
}

}  // namespace perfbench
