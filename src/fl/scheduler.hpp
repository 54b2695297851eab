// Virtual-clock event scheduler for the event-driven simulation engine.
//
// The scheduler owns a deterministic timeline: events are executed in
// (time, insertion-sequence) order, so two runs that schedule the same
// events observe exactly the same interleaving regardless of how many OS
// threads execute the underlying work. Real computation (client training)
// happens elsewhere; the scheduler only decides *when*, in simulated
// seconds, its results become visible.
//
// Events can be cancelled by the id schedule_at/schedule_after return.
// The scenario layer leans on this: an upload's deadline event is
// cancelled when the upload arrives in time, and an arrival event is
// never scheduled for a client that churned away — so races between
// "arrived" and "abandoned" are resolved once, at scheduling time, not
// re-litigated in every callback. The scheduler keeps the set of live ids
// (scheduled, not yet run or cancelled), so cancel() is one hash erase;
// cancelled events stay in the heap until they surface and are dropped
// there — they never advance the clock.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace fedbiad::fl {

class EventScheduler {
 public:
  using Callback = std::function<void()>;
  /// Handle for cancel(); ids are never reused within one scheduler.
  using EventId = std::uint64_t;
  static constexpr EventId kNoEvent = 0;

  /// Current virtual time in seconds. Starts at 0 and only moves forward.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Number of events not yet executed (cancelled events excluded).
  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }

  /// Schedules `cb` at absolute virtual time `time` (must be >= now()).
  /// Events at equal times run in the order they were scheduled. Returns a
  /// non-zero id usable with cancel().
  EventId schedule_at(double time, Callback cb);

  /// Schedules `cb` `delay` virtual seconds from now (delay must be >= 0).
  EventId schedule_after(double delay, Callback cb);

  /// Cancels a pending event. Returns true if the event was still pending;
  /// false if it already ran, was already cancelled, or the id is unknown
  /// (kNoEvent included) — cancelling is always safe. A cancelled event
  /// never runs and never advances the clock.
  bool cancel(EventId id);

  /// Pops the earliest non-cancelled event, advances the clock to its time,
  /// and runs it. The callback may schedule further events. Returns false
  /// when no runnable event was pending.
  bool run_next();

  /// Runs events until the queue is empty.
  void run();

  /// Time of the earliest runnable event, or +infinity when none is pending.
  /// Non-const: cancelled events sitting on top of the heap are dropped
  /// lazily here (they must never shape a caller's wait). This is the
  /// wall-clock adapter hook: a transport event loop asks how long it may
  /// block in epoll_wait/poll before a scheduled deadline is due.
  [[nodiscard]] double next_time();

  /// Runs every event scheduled at or before `time` in order, then advances
  /// the clock to `time` (which must be >= now()). The second half of the
  /// wall-clock adapter: a transport loop reads its monotonic clock and
  /// advances the scheduler to it, so deadline math is the same
  /// schedule/cancel/fire code path the virtual-clock engine uses.
  void advance_to(double time);

  /// Jumps the clock to `time` (must be >= now() and the queue must be
  /// empty). Exists for checkpoint resume only: a restored scheduler starts
  /// from the snapshot's clock before its events are re-scheduled, so every
  /// re-scheduled time is an absolute time from the original run.
  void set_now(double time);

 private:
  struct Event {
    double time = 0.0;
    EventId id = 0;  ///< insertion order; breaks time ties, keys cancel()
    Callback cb;
  };

  // Min-heap on (time, id) via std::push_heap/std::pop_heap so the popped
  // event can be moved out (std::priority_queue::top is const).
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }

  std::vector<Event> heap_;  ///< live and not-yet-dropped cancelled events
  std::unordered_set<EventId> live_;  ///< scheduled, neither run nor cancelled
  double now_ = 0.0;
  EventId next_id_ = 1;  ///< 0 is kNoEvent
};

}  // namespace fedbiad::fl
