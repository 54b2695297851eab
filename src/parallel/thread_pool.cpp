#include "parallel/thread_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>

namespace fedbiad::parallel {

namespace {
// True on threads owned by any ThreadPool, which run for_each_range inline
// and never bind a pool: nested parallelism degrades instead of deadlocking.
thread_local bool is_pool_worker = false;
thread_local ThreadPool* bound_pool = nullptr;  // set only through BindPool

/// One for_each_range call, shared with the tasks it posts. A task that
/// starts after the range is done never touches `fn` (the caller's).
struct RangeJob {
  std::size_t n = 0;
  std::size_t step = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};  ///< indices processed so far

  /// Claims and runs chunks until none is left.
  void run_chunks() noexcept {
    for (;;) {
      const std::size_t begin = next.fetch_add(step);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + step);
      (*fn)(begin, end);
      if (done.fetch_add(end - begin) + (end - begin) == n) done.notify_one();
    }
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : owner_(::getpid()) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  is_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::for_each_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, size() + 1);
  if (chunks <= 1 || is_pool_worker || owner_ != ::getpid()) {
    fn(0, n);
    return;
  }
  auto job = std::make_shared<RangeJob>();
  job->n = n;
  job->step = (n + chunks - 1) / chunks;
  job->fn = &fn;
  for (std::size_t c = 1; c < chunks; ++c) {
    post([job] { job->run_chunks(); });
  }
  job->run_chunks();
  for (std::size_t d = job->done.load(); d != n; d = job->done.load()) {
    job->done.wait(d);
  }
}

BindPool::BindPool(ThreadPool* pool) noexcept : previous_(bound_pool) {
  if (!is_pool_worker) bound_pool = pool;
}

BindPool::~BindPool() { bound_pool = previous_; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain) {
  if (n == 0) return;
  if (bound_pool == nullptr || n * std::max<std::size_t>(grain, 1) < 2048) {
    fn(0, n);
    return;
  }
  bound_pool->for_each_range(n, fn);
}

}  // namespace fedbiad::parallel
