// Discrete-event scheduler.
//
// The scheduler owns a time-ordered queue of callbacks. Ties in time are
// broken by insertion order so that runs are fully deterministic. Events may
// be cancelled through the handle returned at scheduling time.
//
// The queue is an intrusive pairing heap over arena-pooled nodes. Push and
// Cancel are O(1) (Cancel unlinks the node immediately, releasing its
// closure's captured state on the spot); pop is amortized O(log n). Event
// ids are slot+generation pairs, so Cancel needs no hash lookup: it is an
// array index plus a generation compare.

#ifndef SRC_SIM_EVENT_SCHEDULER_H_
#define SRC_SIM_EVENT_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/event_callback.h"
#include "src/util/arena.h"
#include "src/util/time.h"

namespace diffusion {

// Identifies a scheduled event for cancellation. Zero is never a valid id.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

// NextEventTime() of an empty queue: later than every schedulable time.
constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();

class EventScheduler {
 public:
  EventScheduler() = default;
  ~EventScheduler();

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  // Schedules `callback` to run at absolute time `when`. `when` must not be
  // earlier than now(); earlier times are clamped to now().
  EventId ScheduleAt(SimTime when, EventCallback callback);

  // Schedules `callback` to run `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, EventCallback callback);

  // Cancels a pending event. Returns true if the event was still pending.
  // Cancelling an id that already ran (or was already cancelled) is a no-op.
  bool Cancel(EventId id);

  // True when no runnable events remain.
  bool Empty() const { return root_ == nullptr; }

  // Time of the next event RunOne would run, or kNoEventTime when the queue
  // is empty.
  SimTime NextEventTime() const { return root_ == nullptr ? kNoEventTime : root_->when; }

  // Runs the next event, advancing the clock. Returns false if none remain.
  bool RunOne();

  // Runs events until the queue is empty or the clock passes `end`.
  // Events at exactly `end` are run. Returns the number of events run.
  size_t RunUntil(SimTime end);

  // Runs every event to quiescence. Returns the number of events run.
  size_t RunAll();

  SimTime now() const { return now_; }

  // Number of pending (non-cancelled) events.
  size_t pending() const { return live_count_; }

 private:
  struct PairNode {
    SimTime when = 0;
    uint64_t sequence = 0;  // insertion order, for deterministic tie-breaking
    uint32_t slot = 0;      // index into slots_, for O(1) Cancel
    // prev is the parent when this node is a first child, else the left
    // sibling; null at the root.
    PairNode* child = nullptr;
    PairNode* sibling = nullptr;
    PairNode* prev = nullptr;
    EventCallback callback;
  };

  static bool Earlier(const PairNode* a, const PairNode* b) {
    if (a->when != b->when) {
      return a->when < b->when;
    }
    return a->sequence < b->sequence;
  }

  static PairNode* Meld(PairNode* a, PairNode* b);
  // Melds a node's child list pairwise (the classic two-pass scheme),
  // returning the subtree's new root.
  static PairNode* MeldPairs(PairNode* first);

  // Detaches a non-root node from its parent/sibling links.
  static void Detach(PairNode* node);

  PairNode* AllocNode(SimTime when, EventCallback callback);
  void FreeNode(PairNode* node);

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;

  // Nodes are recycled through an arena-backed pool; steady-state
  // scheduling allocates nothing.
  struct SlotRec {
    PairNode* node = nullptr;  // null while the slot is free / event done
    uint32_t generation = 0;
  };
  Arena arena_;
  SlotPool slot_pool_{&arena_};
  Pool<PairNode> node_pool_{&slot_pool_};
  PairNode* root_ = nullptr;
  size_t live_count_ = 0;
  std::vector<SlotRec> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace diffusion

#endif  // SRC_SIM_EVENT_SCHEDULER_H_
