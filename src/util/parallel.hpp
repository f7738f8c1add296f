// Shared-memory parallelism substrate.
//
// The library's hot loops (fault-graph construction, lower-cover candidate
// evaluation, exhaustive fault-injection sweeps) are data-parallel with
// independent iterations. This header provides a reusable fixed-size thread
// pool and a blocking `parallel_for` over an index range with static chunking.
//
// Design notes (see DESIGN.md section 6):
//  * ISO C++ threads only (no OpenMP dependency), per the Core Guidelines'
//    preference for standard facilities; the pool is created lazily and reused
//    so per-call overhead is two condition-variable round trips.
//  * Results must be accumulated deterministically: use per-index output
//    slots or per-chunk partials merged in index order, never unordered
//    atomics, so that runs are reproducible regardless of thread count.
//  * Nested parallelism on one pool degrades gracefully: a parallel_for
//    issued from inside a task already running on that pool (at any
//    nesting depth on the calling thread, even through another pool's
//    batch) executes inline instead of deadlocking, so outer fan-outs
//    (e.g. generate_fusion_batch over requests) compose with the inner
//    parallel hot loops without configuration. What is NOT supported is a
//    cycle through two pools' *workers* — pool A's worker submitting to
//    pool B whose worker submits back to A blocks on A's submission lock.
//    Use one pool per independent operation (the library does).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ffsm {

/// A fixed-size pool of worker threads executing chunked batches.
///
/// Exception policy: a task that throws terminates the program (the
/// exception escapes the worker). Library callers wrap user callbacks so
/// this only happens on contract violations inside ffsm itself.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs fn(chunk_index) for chunk_index in [0, chunks) across the pool and
  /// blocks until all chunks completed. The calling thread participates.
  ///
  /// Safe to call concurrently from multiple external threads (batches are
  /// serialized on an internal submission lock) and safe to call from inside
  /// a task running on this pool (the nested batch runs inline on the
  /// calling worker).
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is executing a task on this pool anywhere
  /// in its nesting stack (worker or participating submitter, even through
  /// an intervening batch on another pool). Nested run_chunks calls from
  /// such a thread execute inline.
  [[nodiscard]] bool on_this_pool() const noexcept;

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& global();

 private:
  struct Batch;
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;          // serializes external batches
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* batch_ = nullptr;           // guarded by mutex_
  std::uint64_t generation_ = 0;     // guarded by mutex_
  std::size_t active_workers_ = 0;   // guarded by mutex_
  bool stopping_ = false;            // guarded by mutex_
};

/// Options controlling parallel_for execution.
struct ParallelOptions {
  /// Pool to run on; nullptr means ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Below this iteration count the loop runs serially on the caller.
  std::size_t serial_threshold = 1024;
  /// Upper bound on chunks per thread (load-balancing granularity).
  std::size_t chunks_per_thread = 4;
};

/// Calls body(i) for every i in [begin, end), potentially in parallel.
/// body must be safe to invoke concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options = {});

/// Calls body(chunk_begin, chunk_end) over a partition of [begin, end) into
/// contiguous chunks. Preferred over parallel_for when the body keeps
/// per-chunk scratch state (e.g. local accumulators).
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    const ParallelOptions& options = {});

}  // namespace ffsm
