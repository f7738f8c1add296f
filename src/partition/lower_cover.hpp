// Lower cover of a closed partition (paper Definition 2).
//
// The lower cover of machine M consists of the *maximal* closed partitions
// strictly less (coarser) than M. Following Lee–Yannakakis and the paper's
// construction, every lower-cover element arises as the merge closure of M
// with one pair of its blocks united. The definition itself (one
// merge_closure per pair, dedup, naive maximality filter) lives in
// tests/oracle.hpp as the reference lower_cover is checked against.
//
// lower_cover closes far fewer pairs. Take M's B blocks and its quotient
// machine. The block-pair graph has one node per pair {i, j}, i < j, and
// event e adds an edge to {δ(i,e), δ(j,e)}, dropped when the two coincide.
// - The merge closure of {i, j} is the equivalence closure of the pairs
//   reachable from {i, j}: those pairs must be united, and uniting them
//   is already closed under every event.
// - So if pair q reaches pair p, q's closure is coarser than or equal to
//   p's, and all pairs of a strongly connected component share a closure.
// - Every pair reaches a *sink* component, one with no edge leaving it.
//   Hence every pair's closure lies at or below some sink's closure, and
//   the maximal elements are among the sink closures: exactly the maximal
//   ones among them.
// - A maximal element is the closure of every pair it unites, so its first
//   occurrence in the definition's pair order is its smallest united pair.
//   Sorting by that pair gives the definition's order.
// A serial Tarjan search with an early abort finds the sinks: a DFS that
// reaches a pair already known to be dead, or in a sink, marks its whole
// stack dead, so no pair is visited twice. One pair per sink is closed
// with MergeClosureEngine, repeats are dropped, and the maximal closures
// are kept in that order. The cover, order included, equals the
// definition's.
//
// Complexity: O(B^2 * |Sigma|) edge visits at most, and only sink pairs
// have all their edges scanned, plus O(N * |Sigma| * alpha) per sink
// closure and the maximality filter over the distinct sink closures. The
// search holds one 32-bit word per pair (its visit index, or dead, or in
// a sink) plus its DFS stack: frames of four words that carry a pair's
// blocks, next event and lowlink.
//
// A lower cover depends only on (machine, p) — not on which originals or
// fault graph drove the caller there — so results are memoizable across
// Algorithm 2's outer iterations and across whole batches of fusion
// requests sharing one top machine. LowerCoverCache provides that shared,
// thread-safe memo; every descent restarts from the identity partition, so
// the cache turns the shared prefix of all descents into O(1) lookups.
// The memo holds at most `capacity` covers and evicts the least recently
// used one to make room: an evicted cover is simply recomputed on the next
// miss, so results never depend on capacity.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fsm/dfsm.hpp"
#include "obs/obs.hpp"
#include "partition/partition.hpp"
#include "util/parallel.hpp"

namespace ffsm {

/// One exported hot cache entry — the partition descended from plus its
/// lower cover. The unit of the warm cache handoff: export_hot() hands a
/// vector of these to the backend, which ships them in a kCacheWarm frame
/// and replays them into the replacement worker's cache via import().
struct WarmCacheEntry {
  Partition key;
  std::vector<Partition> cover;
};

/// Thread-safe, size-bounded memo of lower covers keyed by the partition
/// descended from. One cache instance must only ever be used with a single
/// machine (the cache does not key on it); generate_fusion_batch enforces
/// this by construction.
///
/// The cache holds at most capacity() entries. An insert at capacity
/// evicts the least recently used entry (a hit or an insert counts as a
/// use). Values are handed out as shared_ptr, so eviction can never
/// invalidate a cover a descent is still walking — the entry just leaves
/// the table and the next lookup recomputes it. Counters distinguish that
/// case: a miss on a key that was previously evicted counts as an
/// *eviction miss*, keeping cold-miss stats meaningful under eviction.
class LowerCoverCache {
 public:
  using Cover = std::vector<Partition>;

  static constexpr std::size_t kDefaultCapacity = 1024;

  /// `capacity` is the most entries ever resident; it must be >= 1.
  explicit LowerCoverCache(std::size_t capacity = kDefaultCapacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Cached cover for `p`, or nullptr on miss. A hit marks `p` as the
  /// most recently used entry.
  [[nodiscard]] std::shared_ptr<const Cover> find(const Partition& p) const;

  /// Inserts (first writer wins) and returns the cached value, evicting
  /// the least recently used entry first when the table is at capacity.
  std::shared_ptr<const Cover> insert(const Partition& p,
                                      std::shared_ptr<const Cover> cover);

  [[nodiscard]] std::size_t size() const;

  /// Snapshot of the (up to) `n` hottest resident entries, most recently
  /// used first — the payload of a warm cache handoff. Covers are copied
  /// out, so the snapshot stays valid after eviction.
  [[nodiscard]] std::vector<WarmCacheEntry> export_hot(std::size_t n) const;

  /// Replays an export_hot() snapshot into this cache (typically a fresh
  /// one on a respawned worker or a failover target). Respects the
  /// capacity bound and preserves the exporter's recency order. Resident
  /// keys are left untouched (first writer wins, as in insert()).
  void import(const std::vector<WarmCacheEntry>& entries);

  // Lifetime counters (monotonic, approximate under contention).

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Total misses == cold_misses() + eviction_misses().
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return cold_misses() + eviction_misses();
  }
  /// Misses on keys never seen before.
  [[nodiscard]] std::uint64_t cold_misses() const noexcept {
    return cold_misses_.load(std::memory_order_relaxed);
  }
  /// Misses on keys that were resident once and then evicted — the price
  /// of the capacity bound, reported separately so eviction pressure does
  /// not masquerade as a cold workload.
  [[nodiscard]] std::uint64_t eviction_misses() const noexcept {
    return eviction_misses_.load(std::memory_order_relaxed);
  }
  /// Entries evicted so far.
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Approximate bytes held by resident keys + covers (payload estimate,
  /// excluding hash-table overhead).
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<const Cover> cover;
    /// Logical access clock value of the last use (insert or find() hit).
    std::atomic<std::uint64_t> last_used{0};
    std::size_t bytes = 0;
  };
  using Map = std::unordered_map<Partition, std::shared_ptr<Entry>,
                                 PartitionHash>;

  /// Payload estimate for one (key, cover) pair.
  static std::size_t entry_bytes(const Partition& key, const Cover& cover);

  /// The map_ iterator of the least recently used entry; requires lock
  /// held and map_ non-empty.
  [[nodiscard]] Map::iterator lru_victim_locked();

  /// Evicts the entry at `victim`; requires unique lock held.
  void evict_locked(Map::iterator victim);

  /// Places one entry, evicting first if needed; requires unique lock
  /// held and the key non-resident. Shared by insert() and import().
  void emplace_locked(const Partition& key,
                      std::shared_ptr<const Cover> cover);

  std::size_t capacity_;
  mutable std::shared_mutex mutex_;
  // shared_ptr<Entry> values: stable addresses across rehash, so find()
  // can bump last_used outside any per-entry lock.
  Map map_;
  /// Remembers an evicted key's hash for miss classification, keeping the
  /// tombstone set bounded; requires unique lock held.
  void record_eviction_locked(const Partition& key);

  /// Content hashes of evicted keys, for the eviction-miss counter.
  /// 8 bytes per distinct evicted key; itself capped at ~16x capacity and
  /// reset when full, so miss classification is approximate (a collision
  /// or a reset merely flips an eviction miss to cold or vice versa) but
  /// the cache's total memory stays bounded.
  std::unordered_set<std::size_t> evicted_hashes_;
  mutable std::atomic<std::uint64_t> clock_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> cold_misses_{0};
  mutable std::atomic<std::uint64_t> eviction_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> bytes_{0};
};

struct LowerCoverOptions {
  /// Pool for the maximality filter's fan-out over the distinct sink
  /// closures (nullptr = global pool); fewer than 16 run on the calling
  /// thread. The sink search itself is serial.
  ThreadPool* pool = nullptr;
  /// false runs the maximality filter on the calling thread too. Covers
  /// are identical either way.
  bool parallel = true;
  /// Optional memo shared across calls (and threads). Must only ever see
  /// partitions of one machine.
  LowerCoverCache* cache = nullptr;
  /// Optional observability context (nullptr = uninstrumented). Feeds the
  /// `gen.lower_cover` span (one full cover computation), the
  /// `gen.closure_eval` histogram (the sink search and sink closures inside
  /// it), the `gen.sink_components` counter (sink components found) and
  /// `cache.get` / `cache.insert` (memo lookup / publish latency). Never
  /// affects results.
  obs::Obs* obs = nullptr;
};

/// Maximal closed partitions strictly below `p` on `machine`'s transition
/// structure. For the single-block partition (bottom) this is empty.
/// `p` must be closed.
[[nodiscard]] std::vector<Partition> lower_cover(
    const Dfsm& machine, const Partition& p,
    const LowerCoverOptions& options = {});

/// Cache-aware variant: consults options.cache (when set) before computing
/// and shares the result without copying the cover. When `from_cache` is
/// non-null it is set to whether this call was served by the cache — a
/// per-call signal that stays exact when many threads share one cache
/// (unlike deltas of the cache's global counters).
[[nodiscard]] std::shared_ptr<const LowerCoverCache::Cover> lower_cover_cached(
    const Dfsm& machine, const Partition& p,
    const LowerCoverOptions& options = {}, bool* from_cache = nullptr);

}  // namespace ffsm
