// Per-region-pair mailboxes for cross-region frame handoff.
//
// When a region transmits a frame whose interference disk crosses a region
// boundary, the transmit observer posts a BorderFrame into the (src, dst)
// mailbox. Mailboxes are single-writer: only the source region's worker
// thread appends during a window, and only the barrier thread drains them
// between windows (the sharded engine's barrier provides the happens-before
// edges; no mailbox operation takes a lock).
//
// Frames are flattened at post time: a fragment's pooled WireBody
// (src/radio/wire_body.h) must not cross threads — the body's refcount is
// deliberately non-atomic and its storage belongs to the source region's
// SlotPool — so the slot keeps the fragment header with a null body plus the
// whole message's bytes, and the body reference stays home. The bridge
// wraps those bytes in a body from the destination region's pool.
//
// Slots are pooled: a drained mailbox keeps its BorderFrames (and their
// byte vectors' capacity) for reuse, so steady-state posting performs no
// allocation. This file is on diffusion-lint's DL005 designated-allocator
// list alongside src/util/arena, should the pool ever need raw storage.

#ifndef SRC_RADIO_REGION_MAILBOX_H_
#define SRC_RADIO_REGION_MAILBOX_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "src/radio/fragmentation.h"
#include "src/radio/position.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace diffusion {

// Phantom capabilities for the mailbox threading contract (see
// src/util/thread_annotations.h). Neither is a lock: the sharded engine's
// window barrier provides the actual synchronization. Asserting a role
// declares which side of the barrier the caller runs on, and clang's
// -Wthread-safety then refuses any Post() without the writer role (or drain
// without the barrier role) in scope — remove the Assert() from a posting
// path and the clang CI legs fail to compile.
class DIFFUSION_CAPABILITY("mailbox-writer") MailboxWriterRole {
 public:
  // "This thread is the source region's designated writer for the current
  // window." Post() additionally pins the claim dynamically per mailbox.
  void Assert() const DIFFUSION_ASSERT_CAPABILITY() {}
};

class DIFFUSION_CAPABILITY("mailbox-barrier") MailboxBarrierRole {
 public:
  // "Every region is quiescent; this is the barrier (or setup) thread."
  void Assert() const DIFFUSION_ASSERT_CAPABILITY() {}
};

// One frame crossing a region boundary. `seq` is the per-mailbox append
// sequence; (start, src_region, seq) totally orders a barrier's drain.
struct BorderFrame {
  SimTime start = 0;
  SimDuration duration = 0;
  NodeId sender = 0;
  int src_region = 0;
  uint64_t seq = 0;
  Fragment fragment;           // header and byte range; null body
  std::vector<uint8_t> bytes;  // the whole message's encoding
};

class RegionMailboxPool {
 public:
  explicit RegionMailboxPool(int regions);

  // The static roles callers must hold (writer side: Post; barrier side:
  // everything else). `pool.writer_role().Assert()` in the calling function
  // satisfies the requirement — and documents the thread the call runs on.
  const MailboxWriterRole& writer_role() const DIFFUSION_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }
  const MailboxBarrierRole& barrier_role() const DIFFUSION_RETURN_CAPABILITY(barrier_role_) {
    return barrier_role_;
  }

  // Activates the (src, dst) mailbox. Posts to unlinked pairs are invalid.
  // Setup runs on the barrier thread, before any window starts.
  void Link(int src_region, int dst_region) DIFFUSION_REQUIRES(barrier_role_);
  bool linked(int src_region, int dst_region) const DIFFUSION_REQUIRES(barrier_role_) {
    return Box(src_region, dst_region).linked;
  }

  // Appends a frame to the (src, dst) mailbox, flattening `fragment` and its
  // message's bytes into a recycled slot. Called from the source region's worker thread only; the
  // first Post since the last drain pins the mailbox to the calling thread
  // and a second writer aborts (the dynamic half of the single-writer
  // contract diffusion-lint DL009 checks statically).
  void Post(int src_region, int dst_region, NodeId sender, const Fragment& fragment,
            SimTime start, SimDuration duration) DIFFUSION_REQUIRES(writer_role_);

  // Collects every pending frame addressed to `dst_region` into `out`
  // (cleared first), merged across source mailboxes in (start, src_region,
  // seq) order, and marks the slots recycled. The pointers stay valid until
  // the next Post into the drained mailboxes — i.e. through the barrier at
  // which they were drained, long enough to copy each frame into its
  // delivery closure. Barrier thread only.
  void DrainInto(int dst_region, std::vector<const BorderFrame*>* out)
      DIFFUSION_REQUIRES(barrier_role_);

  // Total frames posted to mailboxes targeting `dst_region` so far. Reads of
  // another region's counters are only valid between windows.
  uint64_t posted_to(int dst_region) const DIFFUSION_REQUIRES(barrier_role_);

  bool HasPending(int dst_region) const DIFFUSION_REQUIRES(barrier_role_);

 private:
  struct Mailbox {
    bool linked = false;
    uint64_t next_seq = 0;
    uint64_t posted = 0;
    // Recycled slots: [0, live) hold pending frames; [live, size) keep their
    // byte capacity from earlier windows.
    std::vector<BorderFrame> slots;
    size_t live = 0;
    // The thread that owns this mailbox for the current window: set by the
    // first Post since the last drain, cleared by DrainInto. A Post from a
    // different thread aborts (see Post). std::thread::id only — no thread
    // is ever spawned here (DL010 confines spawning to src/sim).
    std::thread::id writer{};
  };

  Mailbox& Box(int src_region, int dst_region) {
    return boxes_[static_cast<size_t>(src_region) * static_cast<size_t>(regions_) +
                  static_cast<size_t>(dst_region)];
  }
  const Mailbox& Box(int src_region, int dst_region) const {
    return boxes_[static_cast<size_t>(src_region) * static_cast<size_t>(regions_) +
                  static_cast<size_t>(dst_region)];
  }

  int regions_;
  std::vector<Mailbox> boxes_;
  MailboxWriterRole writer_role_;
  MailboxBarrierRole barrier_role_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_REGION_MAILBOX_H_
