// Priority queue of timed events. Ties are broken by insertion order so the
// simulation is fully deterministic.
//
// Two-tier event core (DESIGN.md §12). The near tier is an indexed 4-ary
// min-heap: the heap array holds small {when, seq, slot} nodes (cheap to move
// and compare), while the callbacks live in a slab of SmallCallback slots
// recycled through a free list. With the callback's inline buffer this makes
// the steady-state schedule/fire cycle allocation-free.
//
// In wheel mode (--eventq=wheel / STROM_EVENTQ=wheel) a hierarchical timing
// wheel holds the far-future population: events at `when >= horizon_` go into
// one of 6 levels x 256 slots (level-0 slot width 2^16 ps ~ 65.5 ns), so a
// retransmission deadline parked 100 us out costs O(1) to insert, move, or
// remove and never inflates the near heap. When the heap drains, the earliest
// occupied wheel slot cascades down (higher-level slots re-scatter into lower
// levels, level-0 slots empty into the heap) and `horizon_` advances.
// Determinism is preserved across modes: `seq` is assigned at push in global
// order regardless of tier, the (when, seq) comparator decides every pop, and
// cascading carries `seq` along unchanged — so heap and wheel runs pop the
// exact same event sequence.
//
// Cancellable timers: CreateTimer installs a persistent callback in a timer
// slab; ArmTimer/CancelTimer physically insert/remove the deadline in O(1)
// (wheel) or O(log n) (heap) instead of letting generation-checked tombstones
// pop through the queue. Re-arming reuses the installed callback, so a timer
// that is armed, cancelled, and re-armed millions of times never allocates.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/small_callback.h"
#include "src/sim/time.h"

namespace strom {

// Process-wide default event-core layout, latched by each EventQueue at
// construction. First GetEventQueueMode() call reads the STROM_EVENTQ
// environment variable ("wheel" enables the two-tier core); SetEventQueueMode
// overrides it (used by --eventq on bench binaries and by tests that compare
// both modes in-process). Heap is the default until wheel parity is proven.
enum class EventQueueMode { kHeap, kWheel };
EventQueueMode GetEventQueueMode();
void SetEventQueueMode(EventQueueMode mode);

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

  EventQueue() : EventQueue(GetEventQueueMode()) {}
  explicit EventQueue(EventQueueMode mode);

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

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Timestamp of the earliest event. May lazily cascade the wheel into the
  // heap, hence non-const. Precondition: !empty().
  SimTime NextTime();

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
  // --- near tier: indexed 4-ary heap ---------------------------------------
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

  // --- far tier: hierarchical timing wheel ----------------------------------
  static constexpr int kWheelLevels = 6;
  static constexpr int kWheelSlots = 256;  // 8 bits per level
  static constexpr int kWheelShift = 16;   // level-0 slot width 2^16 ps
  static constexpr SimTime kSlot0Width = SimTime(1) << kWheelShift;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr uint32_t kTimerBit = 0x80000000u;

  struct WheelNode {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    uint32_t bucket = 0;  // level * kWheelSlots + slot index
  };

  // --- cancellable timer slab ----------------------------------------------
  struct Timer {
    Callback fn;
    uint32_t gen = 0;
    enum State : uint8_t { kIdle, kInHeap, kInWheel, kInRun } state = kIdle;
    uint32_t pos = 0;  // heap index (kInHeap) or wheel node index (kInWheel)
  };

  Timer& CheckedTimer(TimerId id);
  void PlaceNode(size_t i, const HeapNode& node);
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void HeapInsert(const HeapNode& node);
  // Append without restoring heap order (cascade bulk-load); the caller runs
  // a Floyd build over the result before the heap is read again.
  void HeapAppend(const HeapNode& node);
  void BuildHeap();
  void RemoveHeapAt(size_t pos);
  void WheelInsert(SimTime when, uint64_t seq, uint32_t slot);
  void WheelUnlink(uint32_t node_idx);
  void InsertNode(SimTime when, uint64_t seq, uint32_t slot);
  void RemovePending(uint32_t idx, Timer& t);
  // Moves the earliest occupied wheel region into the heap and advances
  // horizon_. Precondition: heap empty, wheel nonempty.
  void AdvanceWheel();
  void EnsureNearTier();
  // Batched same-timestamp dispatch: when the minimum timestamp covers a
  // large fraction of the (near) heap, extract the whole run at once and
  // Floyd-rebuild the remainder instead of re-heapifying per event.
  void MaybeExtractRun();
  Event Materialize(const HeapNode& node);

  EventQueueMode mode_;
  bool batched_;  // batched dispatch rides the wheel mode flag

  std::vector<HeapNode> heap_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;

  SimTime base_ = 0;     // wheel origin, multiple of kSlot0Width
  SimTime horizon_;      // heap owns [.., horizon_), wheel owns [horizon_, ..)
  size_t wheel_size_ = 0;
  std::vector<WheelNode> wnodes_;
  std::vector<uint32_t> free_wnodes_;
  std::array<uint32_t, kWheelLevels * kWheelSlots> bucket_;
  uint64_t occ_[kWheelLevels][kWheelSlots / 64] = {};
  uint32_t occ_levels_ = 0;  // bit L set iff level L has any occupied slot

  std::vector<HeapNode> run_;      // extracted equal-when run, reverse seq order
  std::vector<size_t> scratch_;    // DFS stack for run detection
  // Timestamp whose run probe already failed (run smaller than the batch
  // threshold). Pops only shrink a run, so the probe is not retried until an
  // insert, cancel, or cascade changes the heap; without this a just-under-
  // threshold run would re-walk its whole equal-`when` subtree on every pop.
  static constexpr SimTime kProbeNone = INT64_MIN;
  SimTime failed_probe_when_ = kProbeNone;

  std::deque<Timer> timers_;  // deque: stable addresses across CreateTimer
};

}  // namespace strom

#endif  // SRC_SIM_EVENT_QUEUE_H_
