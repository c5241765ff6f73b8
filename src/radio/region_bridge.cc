#include "src/radio/region_bridge.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace diffusion {

RegionBridge::RegionBridge(const RegionLinkMatrix* matrix, std::vector<Channel*> channels)
    : channels_(std::move(channels)) {
  const int regions = static_cast<int>(channels_.size());
  clamped_by_region_.assign(static_cast<size_t>(regions), 0);
  observers_.reserve(channels_.size());
  for (int region = 0; region < regions; ++region) {
    observers_.push_back(std::make_unique<Observer>(matrix, region));
    channels_[static_cast<size_t>(region)]->set_transmit_observer(observers_.back().get());
  }
}

RegionBridge::~RegionBridge() {
  for (Channel* channel : channels_) {
    channel->set_transmit_observer(nullptr);
  }
}

void RegionBridge::Observer::OnTransmit(uint32_t sender_slot, NodeId sender,
                                        const Fragment& fragment, SimTime start,
                                        SimDuration duration) {
  if (sender_slot >= targets_by_slot_.size()) {
    targets_by_slot_.resize(sender_slot + 1, nullptr);
  }
  const std::vector<int>*& targets = targets_by_slot_[sender_slot];
  if (targets == nullptr) {
    targets = &matrix_->RemoteTargets(sender);
  }
  if (targets->empty()) {
    return;
  }
  // The first post since the last drain pins the outbox to this thread, and
  // a second writer is a determinism bug: abort unconditionally, in release
  // builds too, because a silently interleaved outbox breaks byte-identical
  // replay.
  const std::thread::id self = std::this_thread::get_id();
  if (writer_ == std::thread::id()) {
    writer_ = self;
  } else if (writer_ != self) {
    std::fprintf(stderr,
                 "RegionBridge: single-writer violation: region %d's outbox posted from two "
                 "threads within one window\n",
                 region_);
    std::abort();
  }
  if (live_ == outbox_.size()) {
    outbox_.emplace_back();
  }
  BorderFrame& slot = outbox_[live_++];
  slot.start = start;
  slot.duration = duration;
  slot.sender = sender;
  slot.targets = targets;
  // The pooled body never leaves the source region's thread: the slot takes
  // the header and one copy of the message's bytes, whatever the number of
  // target regions.
  slot.fragment = fragment;
  slot.fragment.body = BodyRef();
  slot.bytes.clear();
  fragment.body->AppendBytes(&slot.bytes);
}

void RegionBridge::Drain(SimTime barrier) {
  // The sharded engine invokes couplers on the barrier thread with every
  // region quiescent (RegionCoupler contract).
  drain_scratch_.clear();
  for (const auto& observer : observers_) {
    for (const BorderFrame& frame : observer->pending()) {
      drain_scratch_.push_back(&frame);
    }
  }
  if (drain_scratch_.empty()) {
    return;
  }
  // Each outbox is already in its region's event order, so a stable sort by
  // start keeps equal starts in (source region, post) order: the drain
  // order is a pure function of the frames, not of which worker ran first.
  std::stable_sort(drain_scratch_.begin(), drain_scratch_.end(),
                   [](const BorderFrame* a, const BorderFrame* b) { return a->start < b->start; });
  for (const BorderFrame* frame : drain_scratch_) {
    const SimTime finish = frame->start + frame->duration;
    const SimTime deliver = std::max(barrier, finish);
    handed_off_ += frame->targets->size();
    for (int dst : *frame->targets) {
      if (deliver > finish) {
        ++clamped_by_region_[static_cast<size_t>(dst)];
      }
      // The slot recycles at the next window; the closure owns its fragment,
      // whose body comes from the destination region's pool. Every region is
      // quiescent, so the barrier thread may allocate there.
      Channel* channel = channels_[static_cast<size_t>(dst)];
      Simulator& sim = channel->simulator();
      const NodeId sender = frame->sender;
      const SimDuration airtime = frame->duration;
      Fragment fragment = frame->fragment;
      fragment.body = ByteBody::Make(&sim.slot_pool(), frame->bytes);
      sim.At(deliver, [channel, sender, airtime, fragment = std::move(fragment)] {
        channel->DeliverRemote(sender, fragment, airtime);
      });
    }
  }
  for (const auto& observer : observers_) {
    observer->Recycle();
  }
}

uint64_t RegionBridge::deliveries_clamped() const {
  uint64_t total = 0;
  for (uint64_t clamped : clamped_by_region_) {
    total += clamped;
  }
  return total;
}

void RegionBridge::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterGlobalCounter("bridge.frames_handed_off",
                                  [this] { return static_cast<double>(frames_handed_off()); });
  registry->RegisterGlobalCounter("bridge.deliveries_clamped",
                                  [this] { return static_cast<double>(deliveries_clamped()); });
  for (size_t region = 0; region < clamped_by_region_.size(); ++region) {
    registry->RegisterGlobalCounter(
        "bridge.deliveries_clamped.r" + std::to_string(region),
        [this, region] { return static_cast<double>(clamped_by_region_[region]); });
  }
}

}  // namespace diffusion
