// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer's public function, timed from the
// benchmark's own code: a name, start and end on the steady clock (seconds
// since the tracer's epoch), the recording thread, its own id, the id of
// the span open on the same thread when it started (its cause), and one
// integer argument (a request id or a byte count, per span name). Spans
// stay in per-thread buffers until the run ends; nothing is written while
// the workload runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the calling thread has used.
[[nodiscard]] inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
  const char* name = "";  ///< static string: the layer boundary
  double start = 0.0;
  double end = 0.0;
  std::uint32_t thread = 0;  ///< small per-tracer thread index
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: nothing was open on this thread
  std::uint64_t arg = 0;

  [[nodiscard]] double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] double now() const { return seconds_between(epoch_, Clock::now()); }

  /// Opens a span on the calling thread; it closes when the Scope dies.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t arg = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Records an already-closed span (e.g. an interval between two calls).
  void record(const char* name, double start, double end,
              std::uint64_t arg = 0);

  /// Every recorded span, merged across threads. Call once the threads
  /// that recorded have stopped recording.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace-event JSON file (loadable in
  /// Perfetto and chrome://tracing). Returns false when the file cannot be
  /// written.
  bool write_chrome(const std::string& path,
                    const std::string& process_name) const;

 private:
  struct ThreadBuffer {
    std::uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  ///< ids of the spans open right now
  };

  ThreadBuffer& buffer();

  Clock::time_point epoch_;
  std::uint64_t serial_;  ///< distinguishes tracers that reuse an address
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace perfbench
