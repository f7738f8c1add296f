// Self-test of the open-loop load generator: a fake server stalls for a known time,
// and every request scheduled during the stall must be charged for it (no
// coordinated omission) — whether the stall sits in the drain or in submit.
#include <cstdio>
#include <mutex>
#include <thread>

#include "open_loop.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAILED: %s\n", what);
}

/// 500 requests, one every 2 ms.
std::vector<Clock::duration> uniform_schedule() {
  std::vector<Clock::duration> offsets;
  for (int i = 0; i < 500; ++i)
    offsets.push_back(std::chrono::milliseconds(2 * i));
  return offsets;
}

/// A fake server whose first drain after `stall_at` (from the schedule
/// start) sleeps `stall` before answering.
void drain_stall_is_charged_to_every_request_scheduled_during_it() {
  const auto offsets = uniform_schedule();
  constexpr auto kStallAt = std::chrono::milliseconds(300);
  constexpr auto kStall = std::chrono::milliseconds(200);
  std::mutex mutex;
  std::vector<std::uint64_t> queued;
  std::uint64_t next_ticket = 1;
  Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point stall_begin, stall_end;
  bool stalled = false;

  const OpenLoopResult result = run_open_loop(
      offsets,
      [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        queued.push_back(next_ticket);
        return next_ticket++;
      },
      [&](const std::function<std::size_t(std::uint64_t)>& index_of) {
        if (!stalled && Clock::now() >= origin + kStallAt) {
          stalled = true;
          stall_begin = Clock::now();
          std::this_thread::sleep_for(kStall);
          stall_end = Clock::now();
        }
        std::vector<std::uint64_t> tickets;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          tickets.swap(queued);
        }
        std::vector<std::size_t> served;
        for (const std::uint64_t t : tickets) served.push_back(index_of(t));
        return served;
      });
  origin = result.start;

  expect(stalled, "the fake server stalled");
  expect(result.unanswered == 0, "every request answered");
  expect(result.latency_ms.size() == offsets.size(), "one latency per request");
  std::size_t charged = 0;
  for (std::size_t i = 0; i < offsets.size() && i < result.latency_ms.size();
       ++i) {
    const auto scheduled = result.start + offsets[i];
    if (scheduled < stall_begin || scheduled >= stall_end) continue;
    // Answered no earlier than the stall's end, timed from its schedule.
    const double owed = ms_between(scheduled, stall_end);
    expect(result.latency_ms[i] >= owed - 0.5,
           "request scheduled during the stall is charged the rest of it");
    ++charged;
  }
  // 200 ms of a 2 ms schedule: about 100 requests fell inside the stall.
  expect(charged >= 90, "the stall covered the requests scheduled in it");
  expect(percentile(result.latency_ms, 99) >= 150.0,
         "the stall shows in the tail, not just in one sample");
  // The submitter kept its schedule while the server stalled.
  expect(percentile(result.lateness_ms, 99) < 10.0,
         "a drain stall does not delay submission");
}

/// A fake client whose submit blocks for `stall` once: every request
/// scheduled while it blocked goes out late, and its latency still runs
/// from the schedule.
void submit_stall_is_reported_as_lateness_and_charged() {
  const auto offsets = uniform_schedule();
  constexpr std::size_t kBlockingRequest = 150;
  constexpr auto kStall = std::chrono::milliseconds(100);
  std::mutex mutex;
  std::vector<std::uint64_t> queued;
  std::uint64_t next_ticket = 1;

  const OpenLoopResult result = run_open_loop(
      offsets,
      [&](std::size_t i) {
        if (i == kBlockingRequest) std::this_thread::sleep_for(kStall);
        const std::lock_guard<std::mutex> lock(mutex);
        queued.push_back(next_ticket);
        return next_ticket++;
      },
      [&](const std::function<std::size_t(std::uint64_t)>& index_of) {
        std::vector<std::uint64_t> tickets;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          tickets.swap(queued);
        }
        std::vector<std::size_t> served;
        for (const std::uint64_t t : tickets) served.push_back(index_of(t));
        return served;
      });

  expect(result.unanswered == 0, "every request answered");
  // Requests after the blocking one went out up to ~100 ms late ...
  expect(result.lateness_ms[kBlockingRequest + 1] >= 90.0,
         "the request after a blocked submit is reported late");
  // ... and each latency includes that lateness.
  for (std::size_t i = 0; i < result.latency_ms.size(); ++i)
    expect(result.latency_ms[i] >= result.lateness_ms[i] - 0.01,
           "latency runs from the scheduled, not the actual, send");
  // ~50 of 500 requests were late: far past the benchmark's 10 ms p99 bound.
  expect(percentile(result.lateness_ms, 99) > 10.0,
         "a blocked generator breaks the lateness bound");
}

}  // namespace

int main() {
  drain_stall_is_charged_to_every_request_scheduled_during_it();
  submit_stall_is_reported_as_lateness_and_charged();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("open-loop self-test passed\n");
  return 0;
}
