// Bounded exponential backoff for transport operations.
//
// One policy type serves both retry sites of the wire backend: connect
// attempts against a worker that may still be restarting, and in-flight
// re-submit of a serve batch whose connection dropped mid-exchange.
// Attempts are bounded — a shard that cannot reach its worker must fail
// its drain in bounded time so the cluster's failed-drain path (re-queue,
// retry next round, discard_pending escape hatch) takes over; an unbounded
// retry loop here would wedge the whole drain round instead.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "net/socket.hpp"

namespace ffsm::net {

struct RetryPolicy {
  /// Total tries, first one included (>= 1). 1 = no retries.
  std::size_t max_attempts = 4;
  /// Sleep before retry k is backoff(k-1): initial * multiplier^(k-1),
  /// capped at max_backoff.
  std::chrono::milliseconds initial_backoff{25};
  std::chrono::milliseconds max_backoff{2000};
  std::uint32_t multiplier = 2;

  /// Backoff after failed attempt number `attempt` (0-based): bounded
  /// exponential, monotone non-decreasing, never above max_backoff.
  [[nodiscard]] std::chrono::milliseconds backoff(std::size_t attempt) const;
};

/// Runs `fn` up to policy.max_attempts times, sleeping policy.backoff(k)
/// after failed attempt k. Retries on NetError only — transport failures
/// are the retryable kind; protocol and contract violations propagate
/// immediately. Rethrows the last NetError once attempts are exhausted.
template <typename Fn>
auto with_retry(const RetryPolicy& policy, Fn&& fn) {
  FFSM_EXPECTS(policy.max_attempts >= 1);
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const NetError&) {
      if (attempt + 1 >= policy.max_attempts) throw;
      std::this_thread::sleep_for(policy.backoff(attempt));
    }
  }
}

}  // namespace ffsm::net
