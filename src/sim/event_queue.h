// Priority queue of timed events. Ties are broken by insertion order so the
// simulation is fully deterministic.
//
// Event core (DESIGN.md §12): an indexed 4-ary min-heap. The heap array holds
// small {when, seq, slot} nodes (cheap to move and compare), while the
// callbacks live in a slab of SmallCallback slots recycled through a free
// list. With the callback's inline buffer this makes the steady-state
// schedule/fire cycle allocation-free. The (when, seq) comparator decides
// every pop, so the pop order depends only on the push order.
//
// Cancellable timers: CreateTimer installs a persistent callback in a timer
// slab; ArmTimer/CancelTimer physically insert/remove the deadline in
// O(log n) instead of letting generation-checked tombstones pop through the
// queue. Each timer records its heap index, kept current by every node move,
// so removal needs no search. Re-arming reuses the installed callback, so a
// timer that is armed, cancelled, and re-armed millions of times never
// allocates.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/small_callback.h"
#include "src/sim/time.h"

namespace strom {

class EventQueue {
 public:
  using Callback = SmallCallback;

  static constexpr uint32_t kInvalidTimer = 0xFFFFFFFFu;

  // Handle to a slab-resident cancellable timer. Copyable value; a
  // default-constructed handle is invalid (valid() == false).
  struct TimerId {
    uint32_t idx = kInvalidTimer;
    uint32_t gen = 0;
    bool valid() const { return idx != kInvalidTimer; }
  };

  void Push(SimTime when, Callback fn);

  // Installs `fn` as a persistent callback and returns a handle. The timer
  // starts idle; ArmTimer schedules it. The callback is retained across
  // fires, so re-arming after expiry is allocation-free.
  TimerId CreateTimer(Callback fn);
  // Schedules (idle timer) or physically moves (pending timer) the deadline.
  // Takes a fresh seq either way, exactly like a Push at the same point.
  void ArmTimer(TimerId id, SimTime when);
  // Disarms the timer; the entry is physically removed, never tombstoned.
  // Returns whether it was pending (false = already fired or never armed).
  bool CancelTimer(TimerId id);
  bool TimerPending(TimerId id) const;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Timestamp of the earliest event. Precondition: !empty().
  SimTime NextTime() const;

  // Pops and returns the earliest event. Precondition: !empty().
  struct Event {
    SimTime when;
    uint64_t seq;
    Callback fn;                // one-shot payload (moved out of the slab)
    Callback* timer_fn = nullptr;  // persistent timer callback (fires in place)
    void Run() {
      if (timer_fn != nullptr) {
        (*timer_fn)();
      } else {
        fn();
      }
    }
  };
  Event Pop();

  void Clear();

 private:
  static constexpr uint32_t kTimerBit = 0x80000000u;

  struct HeapNode {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // kTimerBit set: timer slab index; clear: callback slot
  };

  // Earlier time wins; same-time events fire in insertion (seq) order.
  static bool Before(const HeapNode& a, const HeapNode& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  struct Timer {
    Callback fn;
    uint32_t gen = 0;
    bool pending = false;
    uint32_t pos = 0;  // heap index while pending
  };

  Timer& CheckedTimer(TimerId id);
  // Writes `node` at heap index i and, for a timer, records that index.
  void PlaceNode(size_t i, const HeapNode& node);
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void HeapInsert(const HeapNode& node);
  void RemoveHeapAt(size_t pos);

  std::vector<HeapNode> heap_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;

  std::deque<Timer> timers_;  // deque: stable addresses across CreateTimer
};

}  // namespace strom

#endif  // SRC_SIM_EVENT_QUEUE_H_
