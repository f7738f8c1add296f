#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>

#include "util/contracts.hpp"

namespace ffsm {

// A batch is one run_chunks invocation. Lifetime protocol: the batch lives
// on the caller's stack; workers may only load the batch pointer under the
// pool mutex while batch_ still points at it, and they announce themselves
// via active_workers_ before releasing the mutex. The caller retires the
// batch (batch_ = nullptr) only after every attached worker detached, so no
// worker can touch a dead batch.
struct ThreadPool::Batch {
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};
  const std::function<void(std::size_t)>* fn = nullptr;
};

namespace {

// Stack of pools whose batches the calling thread is currently executing
// (outermost first). A linked list of stack nodes rather than a single
// pointer: same-thread re-entrancy must be detected across pools too
// (A -> B -> A on one thread), or the innermost call would fan out and
// deadlock on A's submission lock, which A's original submitter holds while
// waiting for this very worker. Note the stack is per-thread by design —
// chains that hop through *another pool's workers* (A's worker submits to
// B, B's worker submits back to A) are not detectable this way and are
// unsupported; see the header.
struct PoolScopeNode {
  const ThreadPool* pool;
  PoolScopeNode* prev;
};

thread_local PoolScopeNode* tl_pool_stack = nullptr;

struct CurrentPoolScope {
  explicit CurrentPoolScope(const ThreadPool* pool)
      : node{pool, tl_pool_stack} {
    tl_pool_stack = &node;
  }
  ~CurrentPoolScope() { tl_pool_stack = node.prev; }
  PoolScopeNode node;
};

}  // namespace

bool ThreadPool::on_this_pool() const noexcept {
  for (const PoolScopeNode* n = tl_pool_stack; n != nullptr; n = n->prev)
    if (n->pool == this) return true;
  return false;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  // The calling thread participates in every batch, so spawn one fewer
  // worker than the requested parallelism.
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_ready_.wait(lock, [this, seen_generation] {
      return stopping_ || (batch_ != nullptr && generation_ != seen_generation);
    });
    if (stopping_) return;

    Batch* const batch = batch_;
    seen_generation = generation_;
    ++active_workers_;
    lock.unlock();

    {
      const CurrentPoolScope scope(this);
      while (true) {
        const std::size_t i =
            batch->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch->chunks) break;
        (*batch->fn)(i);
      }
    }

    lock.lock();
    if (--active_workers_ == 0) batch_done_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t chunks,
                            const std::function<void(std::size_t)>& fn) {
  FFSM_EXPECTS(fn != nullptr);
  if (chunks == 0) return;
  // Nested call from a task already running on this pool: the pool's
  // workers are busy with the enclosing batch, so fan-out would deadlock.
  // Run inline on the calling thread instead.
  if (workers_.empty() || chunks == 1 || on_this_pool()) {
    for (std::size_t i = 0; i < chunks; ++i) fn(i);
    return;
  }

  // One external batch at a time; concurrent submitters queue here.
  const std::lock_guard<std::mutex> submit_lock(submit_mutex_);

  Batch batch;
  batch.chunks = chunks;
  batch.fn = &fn;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FFSM_ASSERT(batch_ == nullptr);  // guaranteed by submit_mutex_
    batch_ = &batch;
    ++generation_;
  }
  work_ready_.notify_all();

  // Retire the batch on every exit path, including unwind: if fn throws in
  // the caller's participation loop below, workers may still be claiming
  // chunks from the stack-allocated Batch — it must stay published until
  // every attached worker detached, or they read freed stack memory.
  struct Retire {
    ThreadPool* pool;
    ~Retire() {
      std::unique_lock<std::mutex> lock(pool->mutex_);
      pool->batch_done_.wait(lock,
                             [this] { return pool->active_workers_ == 0; });
      pool->batch_ = nullptr;
    }
  } retire{this};

  // The caller participates too; when this loop exits every chunk has been
  // claimed (not necessarily finished — workers may still be running).
  {
    const CurrentPoolScope scope(this);
    while (true) {
      const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.chunks) break;
      fn(i);
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace {

struct ChunkPlan {
  std::size_t count = 0;
  std::size_t size = 0;
};

ChunkPlan plan_chunks(std::size_t items, const ThreadPool& pool,
                      const ParallelOptions& options) {
  const std::size_t parallelism = pool.thread_count() + 1;
  const std::size_t max_chunks =
      std::max<std::size_t>(1, parallelism * options.chunks_per_thread);
  ChunkPlan plan;
  plan.count = std::min(items, max_chunks);
  plan.size = (items + plan.count - 1) / plan.count;
  plan.count = (items + plan.size - 1) / plan.size;
  return plan;
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      options);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    const ParallelOptions& options) {
  FFSM_EXPECTS(begin <= end);
  const std::size_t items = end - begin;
  if (items == 0) return;

  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::global();
  if (items < options.serial_threshold || pool.thread_count() == 0) {
    body(begin, end);
    return;
  }

  const ChunkPlan plan = plan_chunks(items, pool, options);
  pool.run_chunks(plan.count, [&](std::size_t chunk) {
    const std::size_t lo = begin + chunk * plan.size;
    const std::size_t hi = std::min(end, lo + plan.size);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace ffsm
