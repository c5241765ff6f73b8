// Couples per-region channels across region borders.
//
// The bridge installs a TransmitObserver on every region's channel; when a
// node with remote reach (per RegionLinkMatrix) transmits, the frame is
// flattened into the (src, dst) mailbox for every region it may touch: its
// header plus its message's bytes. At each window barrier the sharded engine
// calls DrainInto, which wraps those bytes in a ByteBody from the destination
// region's pool and replays the frame into that region's simulator as a
// DeliverRemote event at max(barrier, start + duration): a frame whose true finish time
// falls inside the elapsed window is delivered at the barrier instead —
// deterministically late by at most one window. Only a window no longer
// than every frame's airtime clamps nothing. A multi-region TestbedWorld's
// window, max(min_frame_airtime, 1 ms), clamps on a fast radio: on
// SimulationRadioConfig()'s 1.6 Mb/s radio every frame lasts 130-450 us,
// under the 1 ms floor, and BENCH_parallel.json's 10k-node world (seed 9000,
// 16 regions) delivers 2423 of its 4108 border frames late.
// deliveries_clamped() reports how often it mattered.

#ifndef SRC_RADIO_REGION_BRIDGE_H_
#define SRC_RADIO_REGION_BRIDGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/radio/channel.h"
#include "src/radio/region_mailbox.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/trace/metrics.h"
#include "src/util/thread_annotations.h"

namespace diffusion {

class RegionBridge : public RegionCoupler {
 public:
  // `matrix` and every channel must outlive the bridge. Installs itself as
  // each channel's transmit observer.
  RegionBridge(const RegionLinkMatrix* matrix, std::vector<Channel*> channels);
  ~RegionBridge() override;

  // RegionCoupler: replays frames pending for `dst_region` as delivery
  // events in its simulator. Barrier thread only.
  void DrainInto(int dst_region, SimTime barrier) override;

  // Total frames posted across all borders. Valid between windows only.
  uint64_t frames_handed_off() const;

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
  // One per region; posts that region's border frames. Runs on the region's
  // worker thread, which alone touches its per-slot target cache.
  class Observer : public TransmitObserver {
   public:
    Observer(RegionBridge* bridge, int region) : bridge_(bridge), region_(region) {}
    void OnTransmit(uint32_t sender_slot, NodeId sender, const Fragment& fragment,
                    SimTime start, SimDuration duration) override;

   private:
    RegionBridge* bridge_;
    int region_;
    // Per channel slot, the sender's RegionLinkMatrix::RemoteTargets, looked
    // up at the slot's first frame; null until then. A slot keeps its node
    // id for the channel's life, so an entry never goes stale.
    std::vector<const std::vector<int>*> targets_by_slot_ DIFFUSION_REGION_PINNED;
  };

  const RegionLinkMatrix* matrix_;
  std::vector<Channel*> channels_;
  std::vector<std::unique_ptr<Observer>> observers_;
  RegionMailboxPool pool_;
  std::vector<const BorderFrame*> drain_scratch_ DIFFUSION_BARRIER_OWNED;
  // Indexed by destination region; bumped on the barrier thread in DrainInto.
  std::vector<uint64_t> clamped_by_region_ DIFFUSION_BARRIER_OWNED;
};

}  // namespace diffusion

#endif  // SRC_RADIO_REGION_BRIDGE_H_
