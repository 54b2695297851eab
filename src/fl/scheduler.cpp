#include "fl/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace fedbiad::fl {

EventScheduler::EventId EventScheduler::schedule_at(double time, Callback cb) {
  FEDBIAD_CHECK(time >= now_, "cannot schedule an event in the past");
  FEDBIAD_CHECK(cb != nullptr, "event callback required");
  const EventId id = next_id_++;
  heap_.push_back(Event{time, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), later);
  live_.insert(id);
  return id;
}

EventScheduler::EventId EventScheduler::schedule_after(double delay,
                                                       Callback cb) {
  FEDBIAD_CHECK(delay >= 0.0, "event delay must be non-negative");
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventScheduler::cancel(EventId id) {
  // kNoEvent, never-issued, already-run and already-cancelled ids are all
  // absent from the live set.
  return live_.erase(id) > 0;
}

bool EventScheduler::run_next() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    if (live_.erase(ev.id) == 0) continue;  // cancelled: clock untouched
    now_ = ev.time;
    ev.cb();
    return true;
  }
  return false;
}

void EventScheduler::run() {
  while (run_next()) {
  }
}

double EventScheduler::next_time() {
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (live_.contains(top.id)) return top.time;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  return std::numeric_limits<double>::infinity();
}

void EventScheduler::advance_to(double time) {
  FEDBIAD_CHECK(time >= now_, "cannot advance the clock backwards");
  while (next_time() <= time) run_next();
  now_ = time;
}

void EventScheduler::set_now(double time) {
  FEDBIAD_CHECK(time >= now_, "cannot move the clock backwards");
  FEDBIAD_CHECK(empty(), "cannot jump the clock over pending events");
  now_ = time;
}

}  // namespace fedbiad::fl
