#include "src/net/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace p2 {

void Scheduler::At(double time, Task fn) {
  heap_.push_back(Event{std::max(time, now_), next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  if (heap_.size() > heap_hwm_) {
    heap_hwm_ = heap_.size();
  }
}

void Scheduler::After(double delay, Task fn) { At(now_ + delay, std::move(fn)); }

bool Scheduler::Step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  // Move the event out before running it: the task may schedule more events.
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

double Scheduler::NextEventTime() const {
  return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.front().time;
}

void Scheduler::RunUntil(double t) {
  while (!heap_.empty() && heap_.front().time <= t) {
    Step();
  }
  now_ = std::max(now_, t);
  // Give back a past burst's capacity only when it is far above what is pending, so
  // a heap that refills soon keeps its buffer. With K > 1 this runs on the thread
  // that ran the node's window, off the serial barrier.
  if (heap_.capacity() > std::max<size_t>(kTrimFloor, 4 * heap_.size())) {
    heap_.shrink_to_fit();
  }
}

}  // namespace p2
