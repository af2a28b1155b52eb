// Tests for utilities (stats, RNG, logging) and the parallel layer
// (thread pool, cost model).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>

#include "parallel/cost_model.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace pdslin {
namespace {

TEST(Stats, SummaryAndRatios) {
  const std::vector<double> v{2.0, 4.0, 6.0};
  const Summary s = summarize(std::span<const double>(v));
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.avg, 4.0);
  EXPECT_DOUBLE_EQ(s.sum, 12.0);
  EXPECT_DOUBLE_EQ(max_over_min(std::span<const double>(v)), 3.0);
  EXPECT_DOUBLE_EQ(imbalance_ratio(std::span<const double>(v)), 0.5);
}

TEST(Stats, EdgeCases) {
  const std::vector<long long> zeros{0, 5};
  EXPECT_TRUE(std::isinf(max_over_min(std::span<const long long>(zeros))));
  const std::vector<long long> allzero{0, 0};
  EXPECT_DOUBLE_EQ(max_over_min(std::span<const long long>(allzero)), 1.0);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(max_over_min(std::span<const double>(empty)), 1.0);
  EXPECT_EQ(format_ratio(2.345), "2.35");
  EXPECT_EQ(format_ratio(std::numeric_limits<double>::infinity()), "inf");
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a.next() != c.next());
  EXPECT_TRUE(differs);
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const int x = r.index(17);
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 17);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformCoverage) {
  Rng r(11);
  std::set<int> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.index(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.seconds(), 0.0);
  AccumTimer acc;
  acc.start();
  acc.stop();
  acc.start();
  acc.stop();
  EXPECT_GE(acc.seconds(), 0.0);
  acc.clear();
  EXPECT_EQ(acc.seconds(), 0.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversRangeAndPropagatesErrors) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  parallel_for(pool, 50, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);

  EXPECT_THROW(
      parallel_for(pool, 10,
                   [](int i) {
                     if (i == 7) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelFor, ChunkedCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (unsigned max_tasks : {1u, 2u, 3u, 7u, 100u}) {
    std::vector<std::atomic<int>> hits(23);
    parallel_for(pool, 23, [&](int i) { hits[i].fetch_add(1); }, max_tasks);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << max_tasks;
  }
}

// Regression for the "first exception wins" contract: under many concurrent
// throws exactly one exception propagates (one of the thrown ones), and the
// pool stays fully reusable afterwards.
TEST(ParallelFor, ConcurrentThrowsYieldOneErrorAndReusablePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    int caught = 0;
    std::string message;
    try {
      parallel_for(pool, 16, [&](int i) {
        throw Error("boom " + std::to_string(i));
      });
    } catch (const Error& e) {
      ++caught;
      message = e.what();
    }
    EXPECT_EQ(caught, 1) << round;
    EXPECT_EQ(message.rfind("boom ", 0), 0u) << message;

    // The pool must be intact: a follow-up loop runs every index.
    std::vector<std::atomic<int>> hits(32);
    parallel_for(pool, 32, [&](int i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(TaskGroup, RunsTasksAndIsReusable) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 40; ++i) {
    group.run([&counter] { counter.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 40);
  // Same group again after wait().
  for (int i = 0; i < 7; ++i) group.run([&counter] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 47);
}

TEST(TaskGroup, WaitRethrowsFirstRecordedError) {
  ThreadPool pool(3);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.run([&ran, i] {
      ran.fetch_add(1);
      if (i % 2 == 0) throw Error("task failed");
    });
  }
  EXPECT_THROW(group.wait(), Error);
  EXPECT_EQ(ran.load(), 8);  // no cancellation at the TaskGroup layer
  // Error consumed: next wait() on fresh tasks succeeds.
  group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 9);
}

// The load-bearing property of the rewrite: an outer parallel_for whose
// bodies run inner parallel_fors on the SAME pool must not deadlock, even
// when the pool is smaller than the outer width — wait() helps execute
// queued tasks instead of blocking. This is the subdomain-task →
// RHS-block-fan-out nesting of the two-level solver.
TEST(TaskGroup, NestedParallelForDoesNotDeadlock) {
  for (unsigned pool_threads : {1u, 2u, 4u}) {
    ThreadPool pool(pool_threads);
    std::atomic<int> counter{0};
    parallel_for(pool, 8, [&](int) {
      parallel_for(pool, 8, [&](int) {
        parallel_for(pool, 2, [&](int) { counter.fetch_add(1); });
      });
    });
    EXPECT_EQ(counter.load(), 8 * 8 * 2) << pool_threads;
  }
}

TEST(TaskGroup, NestedStressOnSharedPool) {
  std::atomic<int> counter{0};
  parallel_for(ThreadPool::shared(), 16, [&](int) {
    TaskGroup inner;  // defaults to the shared pool
    for (int j = 0; j < 16; ++j) {
      inner.run([&counter] { counter.fetch_add(1); });
    }
    inner.wait();
  });
  EXPECT_EQ(counter.load(), 16 * 16);
}

TEST(ParallelRanges, PartitionsAndRunsSerialFallback) {
  ThreadPool pool(3);
  for (unsigned workers : {1u, 2u, 5u, 64u}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_ranges(pool, 37, workers,
                    [&](unsigned, long long begin, long long end) {
                      for (long long i = begin; i < end; ++i) {
                        hits[static_cast<std::size_t>(i)].fetch_add(1);
                      }
                    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << workers;
  }
}

TEST(ThreadBudget, SplitMirrorsPaperLayout) {
  // np = 8, k = 4 subdomains → 4 groups of 2 (paper §V).
  const ThreadBudget b = split_thread_budget(8, 4);
  EXPECT_EQ(b.outer, 4u);
  EXPECT_EQ(b.inner, 2u);
  // Budget smaller than the task count: outer clamps to the budget.
  const ThreadBudget c = split_thread_budget(2, 8);
  EXPECT_EQ(c.outer, 2u);
  EXPECT_EQ(c.inner, 1u);
  // Degenerate inputs stay at least 1×1.
  const ThreadBudget d = split_thread_budget(1, 0);
  EXPECT_EQ(d.outer, 1u);
  EXPECT_EQ(d.inner, 1u);
  const ThreadBudget e = split_thread_budget(0, 4);
  EXPECT_GE(e.outer, 1u);
  EXPECT_GE(e.inner, 1u);
}

TEST(CostModel, SpeedupMonotoneInCores) {
  const std::vector<double> work{1.0, 2.0, 1.5};
  TwoLevelCostOptions opt;
  double prev = two_level_phase_time(work, 1, opt);
  EXPECT_GE(prev, 2.0);  // slowest domain dominates at 1 core
  for (int cores : {2, 4, 8, 16}) {
    const double t = two_level_phase_time(work, cores, opt);
    EXPECT_LT(t, prev) << cores;
    prev = t;
  }
}

TEST(CostModel, ImbalanceDominates) {
  // A perfectly balanced phase beats an imbalanced one of equal total work.
  const std::vector<double> balanced{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> skewed{0.25, 0.25, 0.25, 3.25};
  EXPECT_LT(two_level_phase_time(balanced, 4),
            two_level_phase_time(skewed, 4));
}

TEST(CostModel, GlobalPhaseScales) {
  const double t1 = global_phase_time(8.0, 1);
  const double t64 = global_phase_time(8.0, 64);
  EXPECT_LT(t64, t1);
  EXPECT_GT(t64, 0.0);
}

}  // namespace
}  // namespace pdslin
