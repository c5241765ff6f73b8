// Couples per-region channels across region borders.
//
// The bridge installs a TransmitObserver on every region's channel. When a
// node with remote reach (per RegionLinkMatrix::RemoteTargets) transmits,
// its region's observer flattens the frame once into that region's outbox:
// the fragment header with a null body, the whole message's bytes and the
// sender's target regions. A fragment's pooled WireBody must not cross
// threads — its refcount is deliberately non-atomic and its storage belongs
// to the source region's SlotPool — so only bytes leave the region.
//
// At each window barrier the sharded engine calls Drain once. It merges the
// outboxes by frame start (equal starts in source-region order, then post
// order) and, for each frame and each of its target regions, wraps the bytes
// in a ByteBody from the destination region's pool and replays the frame
// into that region's simulator as a DeliverRemote event at max(barrier,
// start + duration): a frame whose true finish time falls inside the elapsed
// window is delivered at the barrier instead — deterministically late by at
// most one window. Only a window no longer than every frame's airtime
// clamps nothing. A multi-region TestbedWorld's window,
// max(min_frame_airtime, 1 ms), clamps on a fast radio: on
// SimulationRadioConfig()'s 1.6 Mb/s radio every frame lasts 130-450 us,
// under the 1 ms floor, and BENCH_parallel.json's 10k-node world (seed 9000,
// 16 regions) delivers 2423 of its 4108 border frames late.
// deliveries_clamped() reports how often it mattered.
//
// Threading: an outbox has one writer, its region's channel, which calls
// OnTransmit on the region's worker thread inside a window; the barrier
// thread reads and recycles it between windows. The observer type is
// private to the bridge, so nothing else can post. The first post after a
// drain records the writer's thread id, and a post from a second thread
// within the same window aborts.

#ifndef SRC_RADIO_REGION_BRIDGE_H_
#define SRC_RADIO_REGION_BRIDGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/radio/channel.h"
#include "src/radio/fragmentation.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/trace/metrics.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace diffusion {

// One frame crossing region borders, as it waits in its region's outbox.
struct BorderFrame {
  SimTime start = 0;
  SimDuration duration = 0;
  NodeId sender = 0;
  const std::vector<int>* targets = nullptr;  // the sender's RemoteTargets
  Fragment fragment;                          // header and byte range; null body
  std::vector<uint8_t> bytes;                 // the whole message's encoding
};

class RegionBridge : public RegionCoupler {
 public:
  // `matrix` and every channel must outlive the bridge. Installs itself as
  // each channel's transmit observer.
  RegionBridge(const RegionLinkMatrix* matrix, std::vector<Channel*> channels);
  ~RegionBridge() override;

  // RegionCoupler: replays every frame posted since the last drain as
  // delivery events in its target regions. Barrier thread only.
  void Drain(SimTime barrier) override;

  // Frames handed across borders so far, one per (frame, target region).
  // Valid between windows only.
  uint64_t frames_handed_off() const { return handed_off_; }

  // Deliveries pushed later than their true finish time by the window
  // granularity (see file comment). Barrier-thread counters; read them
  // between windows (or after the run), like frames_handed_off().
  uint64_t deliveries_clamped() const;
  uint64_t deliveries_clamped_in(int dst_region) const {
    return clamped_by_region_[static_cast<size_t>(dst_region)];
  }

  // Publishes "bridge.frames_handed_off", "bridge.deliveries_clamped" and a
  // per-region "bridge.deliveries_clamped.r<N>" gauge family as global
  // counters. The registry borrows `this`; unregister (or drop the registry)
  // before the bridge dies. Collect between windows only.
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  // One per region: that region's outbox. OnTransmit runs on the region's
  // worker thread; everything else runs on the barrier thread.
  class Observer : public TransmitObserver {
   public:
    Observer(const RegionLinkMatrix* matrix, int region) : matrix_(matrix), region_(region) {}
    void OnTransmit(uint32_t sender_slot, NodeId sender, const Fragment& fragment,
                    SimTime start, SimDuration duration) override;

    // Frames posted since the last Recycle, in post order.
    std::span<const BorderFrame> pending() const { return {outbox_.data(), live_}; }
    // Empties the outbox, keeping its slots (and their byte capacity) for
    // the next window, and frees it for the next window's writer thread.
    void Recycle() {
      live_ = 0;
      writer_ = std::thread::id();
    }

   private:
    const RegionLinkMatrix* matrix_;
    int region_;
    // Per channel slot, the sender's RemoteTargets, looked up at the slot's
    // first frame; null until then. A slot keeps its node id for the
    // channel's life, so an entry never goes stale.
    std::vector<const std::vector<int>*> targets_by_slot_ DIFFUSION_REGION_PINNED;
    // Recycled slots: [0, live_) hold pending frames; [live_, size) keep
    // their byte capacity from earlier windows.
    std::vector<BorderFrame> outbox_ DIFFUSION_REGION_PINNED;
    size_t live_ DIFFUSION_REGION_PINNED = 0;
    // The thread posting this window: set by the first post since the last
    // Recycle. std::thread::id only — no thread is ever spawned here (DL010
    // confines spawning to src/sim).
    std::thread::id writer_ DIFFUSION_REGION_PINNED{};
  };

  std::vector<Channel*> channels_;
  std::vector<std::unique_ptr<Observer>> observers_;
  std::vector<const BorderFrame*> drain_scratch_ DIFFUSION_BARRIER_OWNED;
  uint64_t handed_off_ DIFFUSION_BARRIER_OWNED = 0;
  // Indexed by destination region; bumped on the barrier thread in Drain.
  std::vector<uint64_t> clamped_by_region_ DIFFUSION_BARRIER_OWNED;
};

}  // namespace diffusion

#endif  // SRC_RADIO_REGION_BRIDGE_H_
