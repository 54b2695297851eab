// OrderedResults: a bounded ticketed completion queue over ThreadPool.
//
// The transport's decode-on-arrival pipeline needs three properties from
// its work queue: (1) bounded depth, so a flood of uploads exerts
// backpressure on sessions instead of growing an unbounded decode backlog;
// (2) results delivered in submission order, so the single consumer commits
// outcomes in exactly the order the frames arrived — the property that
// makes worker count invisible to every downstream trajectory; (3) a plain
// happens-before edge per job, so the consumer reads worker-written results
// without data races. std::future gives (2) and (3) for free: each
// submission's future is queued FIFO, and drain() waits on them head-first.
// A job that finished out of order simply sits completed until its turn.
//
// Threading contract: submit/drain/pending are single-consumer — they must
// all be called from one thread (the transport thread). Only the job
// functions themselves run on pool workers.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <utility>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"

namespace fedbiad::parallel {

template <typename T>
class OrderedResults {
 public:
  /// Results flow through `pool`; at most `depth` submissions may be
  /// outstanding (submitted but not yet drained).
  OrderedResults(ThreadPool& pool, std::size_t depth)
      : pool_(pool), depth_(depth) {
    FEDBIAD_CHECK(depth > 0, "OrderedResults needs a positive depth");
  }

  /// Waits for outstanding jobs: the pool may outlive what they reference.
  ~OrderedResults() {
    for (const std::future<T>& f : pending_) f.wait();
  }

  OrderedResults(const OrderedResults&) = delete;
  OrderedResults& operator=(const OrderedResults&) = delete;

  /// Schedules `fn` on the pool if the queue has room. Returns false — and
  /// does not consume `fn` — when `depth` results are already in flight;
  /// the caller parks the work and retries after the next drain.
  template <typename Fn>
  [[nodiscard]] bool try_submit(Fn&& fn) {
    if (pending_.size() >= depth_) return false;
    pending_.push_back(pool_.submit(std::forward<Fn>(fn)));
    return true;
  }

  /// Delivers every outstanding result to `sink` in submission order,
  /// blocking on stragglers, and returns how many were delivered. After
  /// drain() the queue is empty.
  std::size_t drain(const std::function<void(T&&)>& sink) {
    const std::size_t n = pending_.size();
    while (!pending_.empty()) {
      std::future<T> next = std::move(pending_.front());
      pending_.pop_front();
      sink(next.get());
    }
    return n;
  }

  /// Delivers only results that are already complete, in submission order,
  /// stopping at the first still-running job (never blocks). Returns how
  /// many were delivered.
  std::size_t drain_ready(const std::function<void(T&&)>& sink) {
    std::size_t n = 0;
    while (!pending_.empty() &&
           pending_.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      std::future<T> next = std::move(pending_.front());
      pending_.pop_front();
      sink(next.get());
      ++n;
    }
    return n;
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] bool full() const noexcept {
    return pending_.size() >= depth_;
  }

 private:
  ThreadPool& pool_;
  std::size_t depth_;
  std::deque<std::future<T>> pending_;
};

}  // namespace fedbiad::parallel
