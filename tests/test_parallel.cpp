// Unit tests for the thread pool, parallel_for, and the OrderedResults
// ticketed completion queue behind the transport decode pipeline.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/ordered_results.hpp"
#include "parallel/thread_pool.hpp"
#include "support/split_pools.hpp"

namespace fedbiad::parallel {
namespace {

TEST(ThreadPool, DefaultSizeMatchesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ForEachRangeCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each_range(1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachRangeZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_range(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// The caller takes chunks from the same counter as the workers and waits
// only for chunks a worker has claimed: with the only worker blocked, the
// whole range still completes on the calling thread.
TEST(ThreadPool, ForEachRangeCompletesOnTheCallerWhileWorkersAreBusy) {
  ThreadPool pool(1);
  std::promise<void> gate;
  auto blocked = pool.submit([open = gate.get_future()]() mutable {
    open.wait();
  });
  const auto caller = std::this_thread::get_id();
  std::size_t covered = 0;
  pool.for_each_range(64, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += end - begin;
  });
  EXPECT_EQ(covered, 64u);
  gate.set_value();
  blocked.get();
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = running.fetch_add(1) + 1;
      int old_peak = peak.load();
      while (old_peak < now && !peak.compare_exchange_weak(old_peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      running.fetch_sub(1);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GT(peak.load(), 1);
}

TEST(ParallelFor, MatchesSerialResult) {
  for (const std::size_t workers : support::kSplitPools) {
    const support::BoundTestPool bound(workers);
    std::vector<double> out(50000, 0.0);
    parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * 0.5;
      }
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
    }
  }
}

TEST(ParallelFor, SmallRangesRunSerially) {
  // Below the grain threshold the calling thread does the work itself,
  // even with a pool bound.
  ThreadPool pool(4);
  BindPool bind(&pool);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  parallel_for(ids.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ids[i] = std::this_thread::get_id();
    }
  });
  for (const auto id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, RunsInlineWithoutABoundPool) {
  // No binding, no parallelism: however large the range, one inline call.
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for(
      1 << 20,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, std::size_t{1} << 20);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
      },
      1 << 10);
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // A worker-thread nested parallel_for runs inline (workers have no
  // binding); the caller's nested calls split on the pool its outer chunks
  // keep busy, and wait only for chunks a worker has claimed.
  ThreadPool pool(4);
  BindPool bind(&pool);
  const std::size_t outer = 4 * (pool.size() + 1);
  std::atomic<int> total{0};
  parallel_for(
      outer,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t o = begin; o < end; ++o) {
          parallel_for(
              100000,
              [&](std::size_t b, std::size_t e) {
                total.fetch_add(static_cast<int>(e - b));
              },
              1000);
        }
      },
      1 << 20);
  EXPECT_EQ(total.load(), static_cast<int>(outer * 100000));
}

TEST(ParallelForRange, ChunksPartitionTheRange) {
  // The range form must hand out disjoint [begin, end) chunks covering
  // [0, n) exactly once — every index incremented exactly one time.
  const std::size_t n = 100000;
  for (const std::size_t workers : support::kSplitPools) {
    const support::BoundTestPool bound(workers);
    std::vector<std::atomic<int>> hits(n);
    parallel_for(
        n,
        [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        64);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(BindPool, RestoresThePreviousBindingAndNeverBindsOnWorkers) {
  ThreadPool outer_pool(2);
  ThreadPool inner_pool(3);
  // Whether parallel_for split a large range on this thread.
  auto splits = [] {
    std::atomic<std::size_t> calls{0};
    parallel_for(1 << 16, [&](std::size_t, std::size_t) { calls.fetch_add(1); },
                 1 << 10);
    return calls.load() > 1;
  };
  EXPECT_FALSE(splits());
  {
    BindPool outer(&outer_pool);
    EXPECT_TRUE(splits());
    {
      BindPool none(nullptr);
      EXPECT_FALSE(splits());
    }
    EXPECT_TRUE(splits());
    // A binding made inside a pool task binds nothing there.
    EXPECT_FALSE(outer_pool
                     .submit([&] {
                       BindPool on_worker(&inner_pool);
                       return splits();
                     })
                     .get());
  }
  EXPECT_FALSE(splits());
}

// A fork()ed child keeps a copy of the forking thread's binding but none of
// the pool's workers, and the pool's mutex may have been held at fork time.
// parallel_for there must run the range inline instead of queuing on the
// inherited pool and waiting forever for workers that do not exist.
TEST(ParallelFor, ForkedChildRunsInlineOnTheInheritedPool) {
  constexpr std::size_t kN = 1 << 16;  // far above the serial grain
  ThreadPool pool(4);
  BindPool bind(&pool);
  auto sum_of_indices = [](auto&& run) {
    std::atomic<std::uint64_t> sum{0};
    run(kN, [&](std::size_t begin, std::size_t end) {
      std::uint64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    return sum.load();
  };
  auto bound = [](std::size_t n, const auto& fn) { parallel_for(n, fn); };
  auto direct = [&pool](std::size_t n, const auto& fn) {
    pool.for_each_range(n, fn);
  };
  constexpr std::uint64_t kExpected = std::uint64_t{kN} * (kN - 1) / 2;
  ASSERT_EQ(sum_of_indices(bound), kExpected);  // the workers are running
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(10);  // a hang dies by SIGALRM instead of stalling the suite
    const bool ok = sum_of_indices(bound) == kExpected &&
                    sum_of_indices(direct) == kExpected;
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ParallelForRange, SmallAndNestedRunOnCaller) {
  ThreadPool pool(4);
  BindPool bind(&pool);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  std::size_t calls = 0;
  parallel_for(3, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    seen = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(seen, caller);

  // From a pool worker the range form degrades to one serial call: every
  // nested call made on a worker sees the whole range at once.
  std::atomic<std::size_t> worker_calls{0};
  std::atomic<std::size_t> whole_ranges{0};
  parallel_for(
      pool.size() * 2,
      [&](std::size_t begin, std::size_t end) {
        if (std::this_thread::get_id() == caller) return;
        for (std::size_t o = begin; o < end; ++o) {
          worker_calls.fetch_add(1);
          parallel_for(
              100000,
              [&](std::size_t b, std::size_t e) {
                if (b == 0 && e == 100000) whole_ranges.fetch_add(1);
              },
              1000);
        }
      },
      1 << 20);
  EXPECT_EQ(whole_ranges.load(), worker_calls.load());
}

TEST(OrderedResults, DrainDeliversInSubmissionOrderDespiteCompletionOrder) {
  // Earlier submissions sleep longer, so completion order is the reverse of
  // submission order — drain must still deliver 0..7 ascending.
  ThreadPool pool(4);
  OrderedResults<int> results(pool, 8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(results.try_submit([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 3));
      return i;
    }));
  }
  EXPECT_TRUE(results.full());
  std::vector<int> drained;
  EXPECT_EQ(results.drain([&](int&& v) { drained.push_back(v); }), 8u);
  EXPECT_EQ(drained, std::vector<int>({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(results.pending(), 0u);
  EXPECT_FALSE(results.full());
}

TEST(OrderedResults, TrySubmitRefusesAtDepthWithoutConsuming) {
  ThreadPool pool(2);
  OrderedResults<int> results(pool, 2);
  ASSERT_TRUE(results.try_submit([] { return 1; }));
  ASSERT_TRUE(results.try_submit([] { return 2; }));
  // The refused callable must not run — parking hands the same work back.
  std::atomic<bool> ran{false};
  EXPECT_FALSE(results.try_submit([&] {
    ran.store(true);
    return 3;
  }));
  EXPECT_EQ(results.pending(), 2u);
  std::vector<int> drained;
  results.drain([&](int&& v) { drained.push_back(v); });
  EXPECT_EQ(drained, std::vector<int>({1, 2}));
  EXPECT_FALSE(ran.load());
  // After the drain the queue has room again.
  ASSERT_TRUE(results.try_submit([] { return 4; }));
  results.drain([&](int&& v) { drained.push_back(v); });
  EXPECT_EQ(drained, std::vector<int>({1, 2, 4}));
}

TEST(OrderedResults, DrainReadyStopsAtFirstUnfinishedJob) {
  ThreadPool pool(2);
  OrderedResults<int> results(pool, 4);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  ASSERT_TRUE(results.try_submit([] { return 1; }));
  ASSERT_TRUE(results.try_submit([open] {
    open.wait();
    return 2;
  }));
  ASSERT_TRUE(results.try_submit([] { return 3; }));
  // Job 3 may finish long before job 2, but drain_ready must never deliver
  // it early: it stops at the gated head.
  std::vector<int> got;
  while (got.empty()) {
    results.drain_ready([&](int&& v) { got.push_back(v); });
  }
  EXPECT_EQ(got, std::vector<int>({1}));
  EXPECT_EQ(results.pending(), 2u);
  gate.set_value();
  results.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(got, std::vector<int>({1, 2, 3}));
}

TEST(OrderedResults, MoveOnlyResultsAndExceptionsFlowThrough) {
  ThreadPool pool(2);
  OrderedResults<std::unique_ptr<int>> results(pool, 2);
  ASSERT_TRUE(results.try_submit([] { return std::make_unique<int>(7); }));
  std::vector<int> vals;
  results.drain([&](std::unique_ptr<int>&& p) { vals.push_back(*p); });
  EXPECT_EQ(vals, std::vector<int>({7}));
  // A throwing job surfaces at drain time, on the consumer thread.
  ASSERT_TRUE(results.try_submit([]() -> std::unique_ptr<int> {
    throw std::runtime_error("decode failed");
  }));
  EXPECT_THROW(results.drain([](std::unique_ptr<int>&&) {}),
               std::runtime_error);
  EXPECT_EQ(results.pending(), 0u);
}

TEST(ThreadPool, NestedForEachFromWorkerRunsSerially) {
  // for_each_range called from a worker of the same pool runs inline
  // instead of waiting on the pool it occupies.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::atomic<std::size_t> calls{0};
  auto fut = pool.submit([&] {
    pool.for_each_range(10, [&](std::size_t begin, std::size_t end) {
      calls.fetch_add(1);
      count.fetch_add(static_cast<int>(end - begin));
    });
  });
  fut.get();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(calls.load(), 1u);
}

}  // namespace
}  // namespace fedbiad::parallel
