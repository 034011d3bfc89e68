// Discrete-event scheduler: the virtual clock that drives the whole simulation.
//
// Substitution note (see DESIGN.md): the paper runs 21 OS processes over UDP and
// measures wall-clock CPU utilization. Here every node's timers and message
// deliveries are events on a deterministic event-driven clock (one heap shared by
// every node, or one heap per node under the parallel runtime — network.h).
// Wall-clock time spent *processing* events is accounted separately per node
// (NodeStats::busy_ns) and plays the role of CPU utilization in the benchmarks.

#ifndef SRC_NET_SCHEDULER_H_
#define SRC_NET_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace p2 {

class Scheduler {
 public:
  using Task = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current virtual time in seconds.
  double Now() const { return now_; }

  // Schedules `fn` at absolute virtual time `time` (clamped to now). Events at
  // equal times run in schedule order.
  void At(double time, Task fn);

  // Schedules `fn` after `delay` seconds.
  void After(double delay, Task fn);

  // Runs the next event, advancing the clock. Returns false if none are pending.
  bool Step();

  // Runs all events scheduled at or before `t`; the clock ends at exactly `t`. Then
  // releases the heap's spare capacity if it exceeds both kTrimFloor events and four
  // times the pending count.
  void RunUntil(double t);

  // Number of pending events.
  size_t PendingCount() const { return heap_.size(); }

  // Virtual time of the earliest pending event, or +infinity if none. Used by the
  // real-socket event loop to size its poll timeouts, and by the parallel fleet
  // runtime to fast-forward across globally idle stretches.
  double NextEventTime() const;

  // Events executed so far (Step calls that ran a task).
  uint64_t ExecutedCount() const { return executed_; }

  // High-water mark of the pending-event heap.
  uint64_t HeapHighWaterMark() const { return heap_hwm_; }

 private:
  // A pending event carries its own task: the heap is the only index.
  struct Event {
    double time;
    uint64_t seq;  // tie-break: schedule order
    Task fn;
  };
  // Heap order (std::push_heap keeps the greatest element first): earliest time
  // first, then lowest seq.
  static bool Later(const Event& a, const Event& b) {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }

  static constexpr size_t kTrimFloor = 1024;

  double now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t heap_hwm_ = 0;
  std::vector<Event> heap_;
};

}  // namespace p2

#endif  // SRC_NET_SCHEDULER_H_
