#include "src/radio/region_mailbox.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace diffusion {

RegionMailboxPool::RegionMailboxPool(int regions) : regions_(std::max(1, regions)) {
  boxes_.resize(static_cast<size_t>(regions_) * static_cast<size_t>(regions_));
}

void RegionMailboxPool::Link(int src_region, int dst_region) {
  Box(src_region, dst_region).linked = true;
}

void RegionMailboxPool::Post(int src_region, int dst_region, NodeId sender,
                             const Fragment& fragment, SimTime start, SimDuration duration) {
  Mailbox& box = Box(src_region, dst_region);
  // Dynamic half of the single-writer contract (the static half is clang's
  // REQUIRES(writer_role_) plus diffusion-lint DL009): the first Post since
  // the last drain pins the mailbox to this thread, and a second writer is a
  // determinism bug — abort unconditionally, in release builds too, because
  // a silently interleaved mailbox breaks byte-identical replay.
  const std::thread::id self = std::this_thread::get_id();
  if (box.writer == std::thread::id()) {
    box.writer = self;
  } else if (box.writer != self) {
    std::fprintf(stderr,
                 "RegionMailboxPool: single-writer violation: mailbox (%d -> %d) "
                 "posted from two threads within one window\n",
                 src_region, dst_region);
    std::abort();
  }
  if (box.live == box.slots.size()) {
    box.slots.emplace_back();
  }
  BorderFrame& slot = box.slots[box.live++];
  slot.start = start;
  slot.duration = duration;
  slot.sender = sender;
  slot.src_region = src_region;
  slot.seq = box.next_seq++;

  // The pooled body never leaves the source region's thread: the slot takes
  // the header and a copy of the message's bytes.
  slot.fragment = fragment;
  slot.fragment.body = BodyRef();
  slot.bytes.clear();
  fragment.body->AppendBytes(&slot.bytes);
  ++box.posted;
}

void RegionMailboxPool::DrainInto(int dst_region, std::vector<const BorderFrame*>* out) {
  out->clear();
  for (int src = 0; src < regions_; ++src) {
    Mailbox& box = Box(src, dst_region);
    for (size_t i = 0; i < box.live; ++i) {
      out->push_back(&box.slots[i]);
    }
    box.live = 0;  // slots (and their byte capacity) recycle next window
    box.writer = std::thread::id();  // next window may assign a new owner
  }
  // Each mailbox is already time-ordered (posts happen in the source
  // region's event order); the merge key adds (src region, seq) so the drain
  // order is a pure function of the frames, not of the mailbox layout.
  std::sort(out->begin(), out->end(), [](const BorderFrame* a, const BorderFrame* b) {
    if (a->start != b->start) {
      return a->start < b->start;
    }
    if (a->src_region != b->src_region) {
      return a->src_region < b->src_region;
    }
    return a->seq < b->seq;
  });
}

uint64_t RegionMailboxPool::posted_to(int dst_region) const {
  uint64_t total = 0;
  for (int src = 0; src < regions_; ++src) {
    total += Box(src, dst_region).posted;
  }
  return total;
}

bool RegionMailboxPool::HasPending(int dst_region) const {
  for (int src = 0; src < regions_; ++src) {
    if (Box(src, dst_region).live > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace diffusion
