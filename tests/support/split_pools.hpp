// Explicit kernel pools for split-invariance tests.
//
// parallel_for splits a kernel's range over the pool its calling thread has
// bound, plus the caller. A test that binds pools of fixed sizes therefore
// exercises real, different splits on any machine, including a one-core
// runner. Every kernel computes each tile, sample or block whole on one
// thread, so results must not move when the split does.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "parallel/thread_pool.hpp"

namespace fedbiad::support {

/// Unbound (inline), then pools of 1, 4 and 7 workers: with the caller a
/// 1-, 2-, 5- and 8-way split.
inline constexpr std::size_t kSplitPools[] = {0, 1, 4, 7};

/// Owns a pool of `workers` threads (none when 0) and binds it on the
/// constructing thread for the object's lifetime.
class BoundTestPool {
 public:
  explicit BoundTestPool(std::size_t workers)
      : pool_(workers == 0 ? nullptr
                           : std::make_unique<parallel::ThreadPool>(workers)),
        bind_(pool_.get()) {}

  /// "inline" or "pool of N", for SCOPED_TRACE.
  [[nodiscard]] std::string label() const {
    return pool_ == nullptr ? std::string("inline")
                            : "pool of " + std::to_string(pool_->size());
  }

 private:
  std::unique_ptr<parallel::ThreadPool> pool_;
  parallel::BindPool bind_;
};

}  // namespace fedbiad::support
