#include "partition/lower_cover.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "partition/closure.hpp"
#include "util/contracts.hpp"

namespace ffsm {

LowerCoverCache::LowerCoverCache(std::size_t capacity) : capacity_(capacity) {
  FFSM_EXPECTS(capacity_ >= 1);
}

std::size_t LowerCoverCache::entry_bytes(const Partition& key,
                                         const Cover& cover) {
  std::size_t bytes = sizeof(Entry) + sizeof(Partition) +
                      key.size() * sizeof(std::uint32_t);
  for (const Partition& p : cover)
    bytes += sizeof(Partition) + p.size() * sizeof(std::uint32_t);
  return bytes;
}

std::shared_ptr<const LowerCoverCache::Cover> LowerCoverCache::find(
    const Partition& p) const {
  {
    const std::shared_lock lock(mutex_);
    const auto it = map_.find(p);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Recency bump. A relaxed store suffices — eviction order only
      // affects which entry gets recomputed later, never results.
      it->second->last_used.store(
          clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return it->second->cover;
    }
    // Classify the miss while still holding the lock: a key evicted
    // earlier re-missing is eviction pressure, not a cold workload.
    if (evicted_hashes_.contains(p.hash()))
      eviction_misses_.fetch_add(1, std::memory_order_relaxed);
    else
      cold_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

void LowerCoverCache::record_eviction_locked(const Partition& key) {
  // The tombstone set only feeds the eviction-miss counter, so it is
  // itself bounded: past ~16x capacity it resets, after which re-misses
  // on long-gone keys count as cold again (the counters are documented
  // approximate; the cache's memory bound is the hard guarantee).
  if (evicted_hashes_.size() >= std::max<std::size_t>(4096, 16 * capacity_))
    evicted_hashes_.clear();
  evicted_hashes_.insert(key.hash());
}

LowerCoverCache::Map::iterator LowerCoverCache::lru_victim_locked() {
  // O(capacity) victim scan, but only on a miss that already paid for
  // a full cover computation (orders of magnitude more work than the
  // scan); an intrusive LRU list is not worth the hit-path writes.
  auto victim = map_.begin();
  std::uint64_t oldest =
      victim->second->last_used.load(std::memory_order_relaxed);
  for (auto it = std::next(map_.begin()); it != map_.end(); ++it) {
    const std::uint64_t used =
        it->second->last_used.load(std::memory_order_relaxed);
    if (used < oldest) {
      oldest = used;
      victim = it;
    }
  }
  return victim;
}

void LowerCoverCache::evict_locked(Map::iterator victim) {
  record_eviction_locked(victim->first);
  bytes_.fetch_sub(victim->second->bytes, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  map_.erase(victim);
}

std::shared_ptr<const LowerCoverCache::Cover> LowerCoverCache::insert(
    const Partition& p, std::shared_ptr<const Cover> cover) {
  const std::unique_lock lock(mutex_);
  // First writer wins so concurrent computations of the same cover agree on
  // one shared value (they are identical anyway — the computation is
  // deterministic). A resident key never triggers eviction.
  const auto it = map_.find(p);
  if (it != map_.end()) return it->second->cover;
  emplace_locked(p, std::move(cover));
  return map_.find(p)->second->cover;
}

void LowerCoverCache::emplace_locked(const Partition& key,
                                     std::shared_ptr<const Cover> cover) {
  while (map_.size() >= capacity_) evict_locked(lru_victim_locked());
  auto entry = std::make_shared<Entry>();
  entry->cover = std::move(cover);
  entry->bytes = entry_bytes(key, *entry->cover);
  entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  map_.emplace(key, std::move(entry));
}

std::size_t LowerCoverCache::size() const {
  const std::shared_lock lock(mutex_);
  return map_.size();
}

std::vector<WarmCacheEntry> LowerCoverCache::export_hot(std::size_t n) const {
  const std::shared_lock lock(mutex_);
  std::vector<std::pair<std::uint64_t, const Map::value_type*>> ranked;
  ranked.reserve(map_.size());
  for (const auto& kv : map_)
    ranked.emplace_back(kv.second->last_used.load(std::memory_order_relaxed),
                        &kv);
  // Hottest (most recently used) first; ties broken by key hash so the
  // snapshot does not depend on unordered_map iteration order.
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->first.hash() > b.second->first.hash();
            });
  if (ranked.size() > n) ranked.resize(n);
  std::vector<WarmCacheEntry> out;
  out.reserve(ranked.size());
  for (const auto& [used, kv] : ranked)
    out.push_back({kv->first, *kv->second->cover});
  return out;
}

void LowerCoverCache::import(const std::vector<WarmCacheEntry>& entries) {
  const std::unique_lock lock(mutex_);
  // Replay coldest first so the exporter's hottest entries end up with the
  // youngest clocks (and survive longest if this cache must evict).
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (map_.contains(it->key)) continue;
    emplace_locked(it->key, std::make_shared<const Cover>(it->cover));
  }
}

std::shared_ptr<const LowerCoverCache::Cover> lower_cover_cached(
    const Dfsm& machine, const Partition& p, const LowerCoverOptions& options,
    bool* from_cache) {
  obs::Obs* const obs = options.obs;
  const bool timed = obs != nullptr && obs->enabled();
  if (from_cache != nullptr) *from_cache = false;
  if (options.cache != nullptr) {
    const std::uint64_t find_start = timed ? obs->now_us() : 0;
    auto cached = options.cache->find(p);
    if (timed) obs->record("cache.get", obs->now_us() - find_start);
    if (cached) {
      if (from_cache != nullptr) *from_cache = true;
      return cached;
    }
  }
  std::shared_ptr<const LowerCoverCache::Cover> computed;
  {
    obs::ScopedSpan span(obs, "gen.lower_cover");
    computed = std::make_shared<const LowerCoverCache::Cover>(
        lower_cover(machine, p, options));
  }
  if (options.cache != nullptr) {
    const std::uint64_t insert_start = timed ? obs->now_us() : 0;
    auto resident = options.cache->insert(p, std::move(computed));
    if (timed) obs->record("cache.insert", obs->now_us() - insert_start);
    return resident;
  }
  return computed;
}

namespace {

/// One block pair (i, j), i < j, of `p` per sink component of its
/// block-pair graph, in the order the search finds the sinks.
///
/// The nodes are the pairs i < j, numbered by block_pair_index. Event e
/// adds an edge from {i, j} to {δ(i,e), δ(j,e)} in p's quotient, dropped
/// when the two coincide. From each unvisited pair, in index order, an
/// iterative Tarjan DFS runs until the first of two things happens:
/// - It reaches a dead pair or a sink pair. Every pair on its stack reaches
///   that pair, so it reaches outside its own component and is in no sink.
///   All of them are marked dead.
/// - A component completes. Nothing completed before it in this DFS, and
///   the DFS never entered an earlier one, so every edge of the component
///   stays inside it: it is a sink. Its pairs are marked as sink pairs, and
///   the rest of the stack dead.
/// Either way every pair the DFS visited ends dead or in a sink, so no pair
/// is visited twice, and only sinks get all their edges scanned.
std::vector<std::pair<std::uint32_t, std::uint32_t>> sink_pairs(
    const Dfsm& machine, const Partition& p, std::span<const State> rep) {
  const auto blocks = static_cast<std::uint32_t>(rep.size());
  const auto k = static_cast<std::uint32_t>(machine.events().size());
  // quotient[b * k + e]: the block that event e takes block b to.
  std::vector<std::uint32_t> quotient(static_cast<std::size_t>(blocks) * k);
  for (std::uint32_t b = 0; b < blocks; ++b)
    for (std::uint32_t e = 0; e < k; ++e)
      quotient[static_cast<std::size_t>(b) * k + e] =
          p.block_of(machine.step_local(rep[b], e));

  // One word per pair: 0 until visited, then its visit index within the
  // running DFS (from 1), then kDead or kSink for good.
  constexpr std::uint32_t kDead = static_cast<std::uint32_t>(-1);
  constexpr std::uint32_t kSink = kDead - 1;
  const std::size_t pair_count =
      static_cast<std::size_t>(blocks) * (blocks - 1) / 2;
  FFSM_EXPECTS(pair_count < kSink);
  std::vector<std::uint32_t> mark(pair_count, 0);

  // A DFS frame holds its pair's blocks, the next event to follow and the
  // lowlink. Tarjan reads lowlinks only of the current frame and of a
  // returning child, so there is no lowlink per pair.
  struct Frame {
    std::uint32_t i, j, event, low;
  };
  std::vector<Frame> frames;
  // The running DFS's pairs in visit order: pair stack[v] has index v + 1.
  // No component completes before the DFS ends, so none is ever popped.
  std::vector<std::uint32_t> stack;
  const auto settle = [&](std::size_t from, std::size_t to,
                          std::uint32_t value) {
    for (std::size_t v = from; v < to; ++v) mark[stack[v]] = value;
  };

  std::vector<std::pair<std::uint32_t, std::uint32_t>> sinks;
  std::uint32_t root = 0;
  for (std::uint32_t ri = 0; ri < blocks; ++ri) {
    for (std::uint32_t rj = ri + 1; rj < blocks; ++rj, ++root) {
      if (mark[root] != 0) continue;
      mark[root] = 1;
      stack.assign(1, root);
      frames.assign(1, {ri, rj, 0, 1});
      while (true) {
        Frame& top = frames.back();
        const std::uint32_t* const qi =
            quotient.data() + static_cast<std::size_t>(top.i) * k;
        const std::uint32_t* const qj =
            quotient.data() + static_cast<std::size_t>(top.j) * k;
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        std::size_t w = 0;
        std::uint32_t seen = 0;
        for (; top.event < k; ++top.event) {
          a = qi[top.event];
          b = qj[top.event];
          if (a == b) continue;
          if (a > b) std::swap(a, b);
          w = block_pair_index(a, b, blocks);
          seen = mark[w];
          if (seen == 0 || seen >= kSink) break;
          top.low = std::min(top.low, seen);
        }
        if (top.event < k && seen != 0) {  // left this DFS
          settle(0, stack.size(), kDead);
          break;
        }
        if (top.event < k) {  // an unvisited pair: descend
          ++top.event;
          const auto index = static_cast<std::uint32_t>(stack.size() + 1);
          mark[w] = index;
          stack.push_back(static_cast<std::uint32_t>(w));
          frames.push_back({a, b, 0, index});
          continue;
        }
        const std::uint32_t index =
            mark[block_pair_index(top.i, top.j, blocks)];
        if (top.low == index) {  // the first component completed: a sink
          sinks.emplace_back(top.i, top.j);
          settle(index - 1, stack.size(), kSink);
          settle(0, index - 1, kDead);
          break;
        }
        const std::uint32_t low = top.low;
        frames.pop_back();
        FFSM_ASSERT(!frames.empty());  // the root's own index is 1
        frames.back().low = std::min(frames.back().low, low);
      }
    }
  }
  return sinks;
}

/// Index of the first block pair of `rep`, in block_pair_index order, that
/// `q` unites; `q` unites at least one.
std::size_t first_united_pair(const Partition& q, std::span<const State> rep) {
  const auto blocks = static_cast<std::uint32_t>(rep.size());
  // A class's first two blocks form its smallest pair.
  std::vector<std::uint32_t> first(q.block_count(), kInvalidState);
  std::size_t best = static_cast<std::size_t>(-1);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    std::uint32_t& f = first[q.block_of(rep[b])];
    if (f == kInvalidState)
      f = b;
    else
      best = std::min(best, block_pair_index(f, b, blocks));
  }
  return best;
}

}  // namespace

std::vector<Partition> lower_cover(const Dfsm& machine, const Partition& p,
                                   const LowerCoverOptions& options) {
  FFSM_EXPECTS(p.size() == machine.size());
  FFSM_EXPECTS(is_closed(machine, p));

  const std::uint32_t blocks = p.block_count();
  if (blocks <= 1) return {};  // bottom: nothing below

  // Representative element of each block.
  std::vector<State> rep(blocks, kInvalidState);
  for (State s = 0; s < p.size(); ++s)
    if (rep[p.block_of(s)] == kInvalidState) rep[p.block_of(s)] = s;

  // Close one pair per sink component and drop repeats: the hash first,
  // then the canonical assignment.
  obs::Obs* const obs = options.obs;
  const bool timed = obs != nullptr && obs->enabled();
  const std::uint64_t eval_start = timed ? obs->now_us() : 0;
  const auto sinks = sink_pairs(machine, p, rep);
  if (obs != nullptr) obs->count("gen.sink_components", sinks.size());
  MergeClosureEngine engine(machine, p);
  std::vector<Partition> unique;
  std::vector<std::size_t> hashes;
  for (const auto& [i, j] : sinks) {
    const std::size_t h = engine.evaluate(rep[i], rep[j]);
    const std::span<const std::uint32_t> canon = engine.assignment();
    bool duplicate = false;
    for (std::size_t u = 0; u < unique.size() && !duplicate; ++u)
      duplicate = hashes[u] == h && std::ranges::equal(unique[u].assignment(),
                                                       canon);
    if (duplicate) continue;
    hashes.push_back(h);
    unique.emplace_back(std::vector<std::uint32_t>(canon.begin(), canon.end()));
  }
  if (timed) obs->record("gen.closure_eval", obs->now_us() - eval_start);

  // Keep the maximal closures.
  const std::size_t k = unique.size();
  std::vector<char> dominated(k, 0);
  const auto scan_row = [&](std::size_t i) {
    for (std::size_t j = 0; j < k; ++j)
      if (i != j && Partition::less(unique[i], unique[j])) {
        dominated[i] = 1;
        return;
      }
  };
  if (options.parallel) {
    ParallelOptions popt;
    popt.pool = options.pool;
    popt.serial_threshold = 16;
    parallel_for(0, k, scan_row, popt);
  } else {
    for (std::size_t i = 0; i < k; ++i) scan_row(i);
  }

  // A maximal element is the closure of every pair it unites, so its first
  // occurrence in pair order is its smallest united pair: sorting by that
  // pair gives the definition's order.
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (pair, element)
  for (std::size_t i = 0; i < k; ++i)
    if (!dominated[i]) order.emplace_back(first_united_pair(unique[i], rep), i);
  std::ranges::sort(order);
  std::vector<Partition> result;
  result.reserve(order.size());
  for (const auto& [pair, i] : order) result.push_back(std::move(unique[i]));
  for (const Partition& q : result) FFSM_ENSURES(is_closed(machine, q));
  return result;
}

}  // namespace ffsm
