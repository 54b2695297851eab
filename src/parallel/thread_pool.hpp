// A fixed-size thread pool used to train selected clients concurrently,
// decode uploads, and parallelize large tensor kernels (parallel_for) on
// the pool a thread has bound — there is no process-wide pool.
//
// Design follows the C++ Core Guidelines concurrency rules: jthread-based
// workers joined by RAII, shared state confined to the queue and guarded by
// a single mutex, tasks communicate results through futures only.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedbiad::parallel {

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 → hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using Result = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

  /// Runs `fn(begin, end)` over disjoint sub-ranges that exactly cover
  /// [0, n), blocking until all of them have been processed. The caller
  /// takes chunks from the same counter as the workers and waits only for
  /// chunks a worker has claimed. Runs fn(0, n) inline on a pool worker
  /// and in a fork()ed child (it has none of the workers). `fn` must not
  /// throw: a throw terminates the process.
  void for_each_range(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void post(std::function<void()> task);
  void worker_loop();

  pid_t owner_;  ///< the process whose workers these are
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::jthread> workers_;
};

/// Binds `pool` (null: none) as the calling thread's parallel_for pool
/// until the scope ends, then restores the previous binding. Binds nothing
/// on a pool worker, so kernels in pool tasks always run inline.
class BindPool {
 public:
  explicit BindPool(ThreadPool* pool) noexcept;
  ~BindPool();
  BindPool(const BindPool&) = delete;
  BindPool& operator=(const BindPool&) = delete;

 private:
  ThreadPool* previous_;
};

/// `fn(begin, end)` over disjoint chunks covering [0, n): split over the
/// calling thread's bound pool, or one inline fn(0, n) call when no pool
/// is bound or `n * grain` (grain: cost of one index) is small.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace fedbiad::parallel
