#include "src/radio/region_bridge.h"

#include <algorithm>
#include <string>
#include <utility>

namespace diffusion {

RegionBridge::RegionBridge(const RegionLinkMatrix* matrix, std::vector<Channel*> channels)
    : matrix_(matrix),
      channels_(std::move(channels)),
      pool_(static_cast<int>(channels_.size())) {
  // Construction happens before any window starts — the setup side of the
  // barrier role.
  pool_.barrier_role().Assert();
  const int regions = static_cast<int>(channels_.size());
  clamped_by_region_.assign(static_cast<size_t>(regions), 0);
  for (int src = 0; src < regions; ++src) {
    for (int dst = 0; dst < regions; ++dst) {
      if (src != dst && matrix_->Linked(src, dst)) {
        pool_.Link(src, dst);
      }
    }
  }
  observers_.reserve(channels_.size());
  for (int region = 0; region < regions; ++region) {
    observers_.push_back(std::make_unique<Observer>(this, region));
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
    targets = &bridge_->matrix_->RemoteTargets(sender);
  }
  // Channel::Transmit runs on the owning region's worker thread, which
  // makes this thread the mailbox writer for region_. Deleting this Assert
  // fails the clang -Wthread-safety build: Post REQUIRES the writer role.
  bridge_->pool_.writer_role().Assert();
  for (int dst : *targets) {
    bridge_->pool_.Post(region_, dst, sender, fragment, start, duration);
  }
}

void RegionBridge::DrainInto(int dst_region, SimTime barrier) {
  // The sharded engine invokes couplers on the barrier thread with every
  // region quiescent (RegionCoupler contract).
  pool_.barrier_role().Assert();
  if (!pool_.HasPending(dst_region)) {
    return;
  }
  pool_.DrainInto(dst_region, &drain_scratch_);
  Channel* channel = channels_[static_cast<size_t>(dst_region)];
  for (const BorderFrame* frame : drain_scratch_) {
    const SimTime finish = frame->start + frame->duration;
    const SimTime deliver = std::max(barrier, finish);
    if (deliver > finish) {
      ++clamped_by_region_[static_cast<size_t>(dst_region)];
    }
    // The slot recycles at the next window; the closure owns its fragment,
    // whose body comes from the destination region's pool. Every region is
    // quiescent, so the barrier thread may allocate there.
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

uint64_t RegionBridge::frames_handed_off() const {
  // Counter reads are only coherent between windows (see header).
  pool_.barrier_role().Assert();
  uint64_t total = 0;
  for (int region = 0; region < static_cast<int>(channels_.size()); ++region) {
    total += pool_.posted_to(region);
  }
  return total;
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
