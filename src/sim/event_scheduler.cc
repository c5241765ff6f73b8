#include "src/sim/event_scheduler.h"

#include <algorithm>
#include <utility>

namespace diffusion {

EventScheduler::~EventScheduler() {
  // Destroy live pairing-heap nodes (their closures may own resources); the
  // arena reclaims the storage wholesale. Iterative walk — the heap can be
  // deep under adversarial insert orders.
  std::vector<PairNode*> stack;
  if (root_ != nullptr) {
    stack.push_back(root_);
  }
  while (!stack.empty()) {
    PairNode* node = stack.back();
    stack.pop_back();
    if (node->child != nullptr) {
      stack.push_back(node->child);
    }
    if (node->sibling != nullptr) {
      stack.push_back(node->sibling);
    }
    node->~PairNode();
  }
}

// ---- pairing heap primitives ----

EventScheduler::PairNode* EventScheduler::Meld(PairNode* a, PairNode* b) {
  if (a == nullptr) {
    return b;
  }
  if (b == nullptr) {
    return a;
  }
  if (Earlier(b, a)) {
    std::swap(a, b);
  }
  // b becomes a's first child.
  b->prev = a;
  b->sibling = a->child;
  if (a->child != nullptr) {
    a->child->prev = b;
  }
  a->child = b;
  a->sibling = nullptr;
  a->prev = nullptr;
  return a;
}

EventScheduler::PairNode* EventScheduler::MeldPairs(PairNode* first) {
  // Pass 1: meld adjacent pairs left-to-right, pushing results onto a stack
  // threaded through the (now free) sibling pointers.
  PairNode* stack = nullptr;
  while (first != nullptr) {
    PairNode* a = first;
    PairNode* b = a->sibling;
    first = b != nullptr ? b->sibling : nullptr;
    a->sibling = nullptr;
    a->prev = nullptr;
    if (b != nullptr) {
      b->sibling = nullptr;
      b->prev = nullptr;
    }
    PairNode* pair = Meld(a, b);
    pair->sibling = stack;
    stack = pair;
  }
  // Pass 2: meld the stack right-to-left.
  PairNode* root = nullptr;
  while (stack != nullptr) {
    PairNode* next = stack->sibling;
    stack->sibling = nullptr;
    root = Meld(root, stack);
    stack = next;
  }
  return root;
}

void EventScheduler::Detach(PairNode* node) {
  if (node->prev->child == node) {
    node->prev->child = node->sibling;
  } else {
    node->prev->sibling = node->sibling;
  }
  if (node->sibling != nullptr) {
    node->sibling->prev = node->prev;
  }
  node->sibling = nullptr;
  node->prev = nullptr;
}

EventScheduler::PairNode* EventScheduler::AllocNode(SimTime when, EventCallback callback) {
  PairNode* node = node_pool_.New();
  node->when = when;
  node->sequence = next_sequence_++;
  node->callback = std::move(callback);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(SlotRec{});
  }
  slots_[slot].node = node;
  node->slot = slot;
  return node;
}

void EventScheduler::FreeNode(PairNode* node) {
  SlotRec& rec = slots_[node->slot];
  rec.node = nullptr;
  ++rec.generation;  // ids pointing at this slot are now stale
  free_slots_.push_back(node->slot);
  node_pool_.Delete(node);
}

// ---- public API ----

EventId EventScheduler::ScheduleAt(SimTime when, EventCallback callback) {
  when = std::max(when, now_);
  PairNode* node = AllocNode(when, std::move(callback));
  root_ = Meld(root_, node);
  ++live_count_;
  // Slot+1 keeps zero reserved for kInvalidEventId even at generation 0.
  return (static_cast<EventId>(slots_[node->slot].generation) << 32) |
         static_cast<EventId>(node->slot + 1);
}

EventId EventScheduler::ScheduleAfter(SimDuration delay, EventCallback callback) {
  return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(callback));
}

bool EventScheduler::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation ||
      slots_[slot].node == nullptr) {
    return false;
  }
  PairNode* node = slots_[slot].node;
  if (node == root_) {
    root_ = MeldPairs(node->child);
  } else {
    Detach(node);
    root_ = Meld(root_, MeldPairs(node->child));
  }
  node->child = nullptr;
  FreeNode(node);
  --live_count_;
  return true;
}

bool EventScheduler::RunOne() {
  if (root_ == nullptr) {
    return false;
  }
  PairNode* top = root_;
  root_ = MeldPairs(top->child);
  top->child = nullptr;
  now_ = top->when;
  // Move the closure out and release the node *before* invoking: the
  // callback may re-enter (schedule, cancel, even reuse this slot) and must
  // never observe the dead node.
  EventCallback callback = std::move(top->callback);
  FreeNode(top);
  --live_count_;
  callback();
  return true;
}

size_t EventScheduler::RunUntil(SimTime end) {
  size_t run = 0;
  while (root_ != nullptr && root_->when <= end) {
    RunOne();
    ++run;
  }
  // Advance the clock to the end of the window even if the queue drained.
  now_ = std::max(now_, end);
  return run;
}

size_t EventScheduler::RunAll() {
  size_t run = 0;
  while (RunOne()) {
    ++run;
  }
  return run;
}

}  // namespace diffusion
