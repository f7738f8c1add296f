// Open-loop load generation without coordinated omission.
//
// A submitter thread sends request i at its scheduled time start + offset[i]
// whether or not earlier requests were answered; a drain thread serves
// whatever is outstanding. Every request's latency runs from its
// *scheduled* send time to the return of the drain that answered it, so a
// stall anywhere — in a drain, or in submit itself — is charged to every
// request scheduled during it, not just to the one request that hit it.
// How late the submitter ran against its schedule is recorded per request;
// a run whose generator fell behind is invalid, not merely slow.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Seeded Poisson arrivals at `rate` per second over `seconds`,
/// conditioned on their count: exactly round(rate * seconds) arrival times
/// drawn uniformly and sorted — a Poisson process given its count, so
/// every run offers the same number of requests whatever its seed.
[[nodiscard]] inline std::vector<Clock::duration> poisson_schedule(
    double rate, double seconds, std::uint64_t seed) {
  ffsm::Xoshiro256 rng(seed);
  std::vector<double> times(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (double& t : times) t = rng.uniform01() * seconds;
  std::sort(times.begin(), times.end());
  std::vector<Clock::duration> offsets;
  offsets.reserve(times.size());
  for (const double t : times)
    offsets.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
  return offsets;
}

struct OpenLoopResult {
  /// Per request (schedule order): scheduled send -> answering drain's
  /// return. Unanswered requests are absent.
  std::vector<double> latency_ms;
  /// Per request: actual send - scheduled send.
  std::vector<double> lateness_ms;
  /// Per answered request: answering drain's start - actual send (0 when
  /// the request joined a drain already in flight).
  std::vector<double> queue_wait_ms;
  /// Per drain call: duration and requests it answered.
  std::vector<double> drain_ms;
  std::vector<double> batch_size;
  /// Time offset 0 of the schedule maps to.
  Clock::time_point start;
  /// First scheduled send -> last answer.
  double elapsed_s = 0.0;
  std::size_t unanswered = 0;
};

/// Submits request `i` and returns the ticket its answer will carry.
using SubmitFn = std::function<std::uint64_t(std::size_t i)>;
/// Serves everything outstanding once; returns the indices of the requests
/// this call answered. `index_of` maps a ticket back to its request index.
using DrainFn = std::function<std::vector<std::size_t>(
    const std::function<std::size_t(std::uint64_t)>& index_of)>;

/// Runs the schedule to completion. After the last send, drains continue
/// until every request is answered or `answer_timeout` passes.
[[nodiscard]] inline OpenLoopResult run_open_loop(
    const std::vector<Clock::duration>& offsets, const SubmitFn& submit,
    const DrainFn& drain,
    Clock::duration answer_timeout = std::chrono::seconds(30)) {
  const std::size_t n = offsets.size();
  std::vector<Clock::time_point> scheduled(n), sent(n), answered(n),
      drain_start(n);
  std::vector<bool> done(n, false);
  OpenLoopResult result;
  result.lateness_ms.resize(n);

  std::mutex mutex;  // guards index, submitted, completed, schedule_done
  std::condition_variable work;
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  bool schedule_done = false;

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  result.start = start;
  std::atomic<bool> stop{false};
  std::exception_ptr submitter_error;
  std::thread submitter([&] {
    try {
      for (std::size_t i = 0; i < n && !stop.load(); ++i) {
        scheduled[i] = start + offsets[i];
        std::this_thread::sleep_until(scheduled[i]);
        {
          // Submit under the lock: a drain can answer the request before
          // submit returns, but cannot map the ticket until it is indexed.
          const std::lock_guard<std::mutex> lock(mutex);
          sent[i] = Clock::now();
          index.emplace(submit(i), i);
          ++submitted;
        }
        work.notify_one();
      }
    } catch (...) {
      submitter_error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      schedule_done = true;
    }
    work.notify_one();
  });
  // A failing drain stops the submitter before the error leaves this frame.
  const auto fail = [&](std::exception_ptr error) {
    stop.store(true);
    submitter.join();
    std::rethrow_exception(error);
  };

  Clock::time_point give_up = Clock::time_point::max();
  const auto index_of = [&](std::uint64_t ticket) {
    const std::lock_guard<std::mutex> lock(mutex);
    return index.at(ticket);
  };
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      work.wait(lock, [&] { return submitted > completed || schedule_done; });
      if (schedule_done && submitted == completed) break;
      if (schedule_done && give_up == Clock::time_point::max())
        give_up = Clock::now() + answer_timeout;
    }
    if (Clock::now() > give_up) break;
    const auto begin = Clock::now();
    std::vector<std::size_t> served;
    try {
      served = drain(index_of);
    } catch (...) {
      fail(std::current_exception());
    }
    const auto end = Clock::now();
    result.drain_ms.push_back(ms_between(begin, end));
    result.batch_size.push_back(static_cast<double>(served.size()));
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::size_t i : served) {
      if (done[i]) continue;
      done[i] = true;
      answered[i] = end;
      drain_start[i] = begin;
      ++completed;
    }
  }
  submitter.join();
  if (submitter_error) std::rethrow_exception(submitter_error);

  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    result.lateness_ms[i] = ms_between(scheduled[i], sent[i]);
    if (!done[i]) {
      ++result.unanswered;
      continue;
    }
    result.latency_ms.push_back(ms_between(scheduled[i], answered[i]));
    result.queue_wait_ms.push_back(
        std::max(0.0, ms_between(sent[i], drain_start[i])));
    last = std::max(last, answered[i]);
  }
  result.elapsed_s = ms_between(start, last) / 1e3;
  return result;
}

}  // namespace perfbench
