#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ffsm {
namespace {

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 3u);  // caller participates as the 4th
}

TEST(ThreadPool, SingleThreadPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);
}

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run_chunks(kChunks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kChunks; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "chunk " << i;
}

TEST(ThreadPool, ZeroChunksIsANoop) {
  ThreadPool pool(2);
  pool.run_chunks(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_chunks(64, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 64u * 63u / 2);
  }
}

TEST(ParallelFor, CoversTheRange) {
  constexpr std::size_t kN = 100000;
  std::vector<int> hits(kN, 0);
  parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, RespectsBeginOffset) {
  std::vector<int> hits(100, 0);
  ParallelOptions opts;
  opts.serial_threshold = 1;
  parallel_for(40, 60, [&](std::size_t i) { ++hits[i]; }, opts);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(hits[i], (i >= 40 && i < 60) ? 1 : 0) << i;
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // Below the threshold the body runs on the calling thread.
  const auto caller = std::this_thread::get_id();
  ParallelOptions opts;
  opts.serial_threshold = 1000;
  parallel_for(0, 10, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  }, opts);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  constexpr std::size_t kN = 50000;
  std::vector<int> hits(kN, 0);
  ParallelOptions opts;
  opts.serial_threshold = 1;
  parallel_for_chunked(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      opts);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelForChunked, DeterministicReductionByChunkSlots) {
  // The canonical deterministic pattern: per-chunk partials, merged in
  // order. Run it twice and on different pool sizes; results must agree.
  constexpr std::size_t kN = 10000;
  const auto reduce = [&](ThreadPool& pool) {
    std::vector<double> partials;
    std::mutex mu;
    ParallelOptions opts;
    opts.pool = &pool;
    opts.serial_threshold = 1;
    double total = 0;
    parallel_for_chunked(
        0, kN,
        [&](std::size_t lo, std::size_t hi) {
          double local = 0;
          for (std::size_t i = lo; i < hi; ++i)
            local += static_cast<double>(i) * 0.5;
          const std::lock_guard<std::mutex> lock(mu);
          total += local;
        },
        opts);
    return total;
  };
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  EXPECT_DOUBLE_EQ(reduce(pool1), reduce(pool8));
}

TEST(ParallelFor, ExplicitPoolIsUsed) {
  ThreadPool pool(3);
  ParallelOptions opts;
  opts.pool = &pool;
  opts.serial_threshold = 1;
  std::atomic<std::size_t> count{0};
  parallel_for(0, 5000, [&](std::size_t) { ++count; }, opts);
  EXPECT_EQ(count.load(), 5000u);
}

TEST(ParallelFor, NestedSerialInsideParallelIsSafe) {
  // Inner loops below the serial threshold never touch the pool, so nesting
  // is fine as long as the inner side stays serial.
  std::vector<std::atomic<int>> hits(64 * 64);
  ParallelOptions outer;
  outer.serial_threshold = 1;
  parallel_for(0, 64, [&](std::size_t i) {
    for (std::size_t j = 0; j < 64; ++j) ++hits[i * 64 + j];
  }, outer);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().thread_count() + 1, 1u);
}

TEST(ThreadPool, NestedRunChunksExecutesInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer(16);
  std::vector<std::atomic<int>> inner(16 * 8);
  pool.run_chunks(16, [&](std::size_t i) {
    ++outer[i];
    EXPECT_TRUE(pool.on_this_pool());
    // A task fanning out on its own pool must not deadlock; the nested
    // batch runs inline on this worker.
    pool.run_chunks(8, [&, i](std::size_t j) { ++inner[i * 8 + j]; });
  });
  for (auto& h : outer) EXPECT_EQ(h.load(), 1);
  for (auto& h : inner) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(pool.on_this_pool());
}

TEST(ThreadPool, ConcurrentExternalBatchesAreSerialized) {
  ThreadPool pool(3);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kChunks = 128;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kChunks);

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      pool.run_chunks(kChunks, [&, t](std::size_t i) { ++hits[t][i]; });
    });
  for (auto& s : submitters) s.join();
  for (auto& per_thread : hits)
    for (auto& h : per_thread) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace ffsm
