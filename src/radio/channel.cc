#include "src/radio/channel.h"

#include <algorithm>
#include <utility>

#include "src/util/memory_bytes.h"

namespace diffusion {

Channel::Channel(Simulator* sim, std::unique_ptr<PropagationModel> propagation)
    : sim_(sim), propagation_(std::move(propagation)), rng_(sim->rng().Fork()) {}

ChannelStats operator-(const ChannelStats& a, const ChannelStats& b) {
  ChannelStats delta;
  delta.transmissions = a.transmissions - b.transmissions;
  delta.receptions_attempted = a.receptions_attempted - b.receptions_attempted;
  delta.collisions = a.collisions - b.collisions;
  delta.propagation_losses = a.propagation_losses - b.propagation_losses;
  delta.deliveries = a.deliveries - b.deliveries;
  return delta;
}

uint32_t Channel::SlotIndex(NodeId node) {
  const auto [it, inserted] = slot_of_.try_emplace(node, static_cast<uint32_t>(slots_.size()));
  if (inserted) {
    slots_.emplace_back().node = node;
  }
  return it->second;
}

const std::vector<uint32_t>& Channel::ReceiversOf(uint32_t sender_slot) {
  ReceiverList& list = slots_[sender_slot].list;
  const uint64_t reach_version = propagation_->reach_version();
  if (list.epoch == epoch_ && list.reach_version == reach_version) {
    return list.receivers;
  }
  list.epoch = epoch_;
  list.reach_version = reach_version;
  list.receivers.clear();
  const NodeId sender = slots_[sender_slot].node;
  const auto consider = [&](uint32_t slot) {
    if (slot != sender_slot && slots_[slot].endpoint != nullptr &&
        propagation_->Reaches(sender, slots_[slot].node)) {
      list.receivers.push_back(slot);
    }
  };
  candidates_.clear();
  if (propagation_->ReachCandidates(sender, &candidates_)) {
    for (NodeId node : candidates_) {
      const auto it = slot_of_.find(node);
      if (it != slot_of_.end()) {
        consider(it->second);
      }
    }
  } else {
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      consider(slot);
    }
  }
  std::sort(list.receivers.begin(), list.receivers.end(),
            [this](uint32_t a, uint32_t b) { return slots_[a].node < slots_[b].node; });
  return list.receivers;
}

void Channel::Attach(ChannelEndpoint* endpoint) {
  ++epoch_;
  ReceiverSlot& slot = slots_[SlotIndex(endpoint->node_id())];
  slot.endpoint = endpoint;
  // NodeStatsSinceAttach reports this attachment's traffic free of
  // pre-fault history.
  slot.attach_base = slot.stats;
}

void Channel::Detach(NodeId node) {
  ++epoch_;
  // Cancel (rather than erase) the node's receptions inside still-active
  // transmissions: other receivers' in-air entries index into the same
  // reception vectors, so positions must stay stable.
  auto it = slot_of_.find(node);
  if (it != slot_of_.end()) {
    ReceiverSlot& slot = slots_[it->second];
    for (const auto& [tx_id, index] : slot.in_air) {
      ResolveTx(tx_id)->receptions[index].cancelled = true;
    }
    slot.in_air.clear();
    slot.endpoint = nullptr;
  }
}

void Channel::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterGlobalCounter("channel.transmissions",
                                  [this] { return static_cast<double>(stats_.transmissions); });
  registry->RegisterGlobalCounter("channel.receptions_attempted", [this] {
    return static_cast<double>(stats_.receptions_attempted);
  });
  registry->RegisterGlobalCounter("channel.collisions",
                                  [this] { return static_cast<double>(stats_.collisions); });
  registry->RegisterGlobalCounter("channel.propagation_losses", [this] {
    return static_cast<double>(stats_.propagation_losses);
  });
  registry->RegisterGlobalCounter("channel.deliveries",
                                  [this] { return static_cast<double>(stats_.deliveries); });
}

size_t Channel::MemoryBytes() const {
  size_t bytes = VectorBytes(candidates_) + HashMapBytes(slot_of_) + VectorBytes(slots_) +
                 VectorBytes(tx_slabs_) + VectorBytes(free_tx_slots_) +
                 VectorBytes(recycled_receptions_);
  for (const ReceiverSlot& slot : slots_) {
    bytes += VectorBytes(slot.in_air) + VectorBytes(slot.list.receivers);
  }
  for (const TxSlab& slab : tx_slabs_) {
    bytes += VectorBytes(slab.tx.receptions);
  }
  for (const std::vector<Reception>& receptions : recycled_receptions_) {
    bytes += VectorBytes(receptions);
  }
  return bytes;
}

ChannelStats Channel::NodeStats(NodeId node) const {
  const auto it = slot_of_.find(node);
  return it != slot_of_.end() ? slots_[it->second].stats : ChannelStats{};
}

ChannelStats Channel::NodeStatsSinceAttach(NodeId node) const {
  const auto it = slot_of_.find(node);
  if (it == slot_of_.end() || slots_[it->second].endpoint == nullptr) {
    // Not currently attached: this attachment contributed nothing yet.
    return ChannelStats{};
  }
  const ReceiverSlot& slot = slots_[it->second];
  return slot.stats - slot.attach_base;
}

bool Channel::CarrierBusyAt(NodeId node) const {
  for (const TxSlab& slab : tx_slabs_) {
    if (slab.live &&
        (slab.tx.sender == node || propagation_->Reaches(slab.tx.sender, node))) {
      return true;
    }
  }
  return false;
}

uint64_t Channel::AllocTx() {
  uint32_t slot;
  if (free_tx_slots_.empty()) {
    slot = static_cast<uint32_t>(tx_slabs_.size());
    tx_slabs_.emplace_back();
  } else {
    slot = free_tx_slots_.back();
    free_tx_slots_.pop_back();
  }
  TxSlab& slab = tx_slabs_[slot];
  slab.live = true;
  return (static_cast<uint64_t>(slab.generation) << 32) | (slot + 1);
}

Channel::ActiveTx* Channel::ResolveTx(uint64_t tx_id) {
  const uint32_t slot = static_cast<uint32_t>(tx_id & 0xffffffff) - 1;
  const uint32_t generation = static_cast<uint32_t>(tx_id >> 32);
  if (slot >= tx_slabs_.size()) {
    return nullptr;
  }
  TxSlab& slab = tx_slabs_[slot];
  if (!slab.live || slab.generation != generation) {
    return nullptr;
  }
  return &slab.tx;
}

void Channel::Transmit(NodeId sender, Fragment fragment, SimDuration duration) {
  const uint64_t tx_id = AllocTx();
  const uint32_t sender_slot = SlotIndex(sender);  // the frame's one id lookup
  ++stats_.transmissions;
  ++slots_[sender_slot].stats.transmissions;

  ActiveTx tx;
  tx.sender = sender;
  tx.fragment = std::move(fragment);
  tx.start = sim_->now();
  tx.duration = duration;
  if (!recycled_receptions_.empty()) {
    tx.receptions = std::move(recycled_receptions_.back());
    recycled_receptions_.pop_back();
  }

  // Half-duplex: the sender's own in-progress receptions are destroyed.
  for (const auto& [other_tx, index] : slots_[sender_slot].in_air) {
    ResolveTx(other_tx)->receptions[index].corrupted = true;
  }

  // Nothing in this loop reenters the channel, so the list stays put.
  for (const uint32_t slot : ReceiversOf(sender_slot)) {
    ReceiverSlot& receiver = slots_[slot];
    ChannelEndpoint* endpoint = receiver.endpoint;
    if (!endpoint->IsAlive() || !endpoint->IsAwake()) {
      continue;
    }
    ++stats_.receptions_attempted;
    ++receiver.stats.receptions_attempted;
    bool corrupted = endpoint->IsTransmitting();
    // Overlap with anything already in the air at this receiver corrupts
    // both frames (no capture).
    if (!receiver.in_air.empty()) {
      corrupted = true;
      for (const auto& [other_tx, index] : receiver.in_air) {
        ResolveTx(other_tx)->receptions[index].corrupted = true;
      }
    }
    tx.receptions.push_back(Reception{slot, corrupted});
    receiver.in_air.emplace_back(tx_id, tx.receptions.size() - 1);
  }

  if (transmit_observer_ != nullptr) {
    transmit_observer_->OnTransmit(sender, tx.fragment, tx.start, duration);
  }

  tx_slabs_[static_cast<uint32_t>(tx_id & 0xffffffff) - 1].tx = std::move(tx);
  sim_->After(duration, [this, tx_id] { FinishTransmit(tx_id); });
}

void Channel::ResolveReception(uint32_t slot, NodeId sender, const Fragment& fragment,
                               SimDuration airtime, SimTime link_time, bool corrupted) {
  const NodeId receiver = slots_[slot].node;
  ChannelStats& receiver_stats = slots_[slot].stats;
  TraceEventKind loss;
  if (corrupted) {
    ++stats_.collisions;
    ++receiver_stats.collisions;
    loss = TraceEventKind::kCollision;
  } else if (!rng_.NextBool(propagation_->DeliveryProbability(sender, receiver, link_time))) {
    ++stats_.propagation_losses;
    ++receiver_stats.propagation_losses;
    loss = TraceEventKind::kPropagationLoss;
  } else {
    ++stats_.deliveries;
    ++receiver_stats.deliveries;
    slots_[slot].endpoint->OnFrameDelivered(fragment, airtime);
    return;
  }
  if (sim_->tracing()) {
    const uint64_t link_packet = (static_cast<uint64_t>(fragment.src) << 32) | fragment.message_seq;
    sim_->Trace(TraceEvent{sim_->now(), loss, receiver, sender, link_packet, 0});
  }
}

void Channel::DeliverRemote(NodeId sender, const Fragment& fragment, SimDuration airtime) {
  // OnFrameDelivered may Transmit, which can add a slot (moving this list)
  // and build another sender's list, but never rebuild this one (the sender
  // is not attached here): index, and re-fetch the list every step.
  const uint32_t sender_slot = SlotIndex(sender);
  ReceiversOf(sender_slot);
  for (size_t i = 0; i < slots_[sender_slot].list.receivers.size(); ++i) {
    const uint32_t slot = slots_[sender_slot].list.receivers[i];
    ReceiverSlot& receiver = slots_[slot];
    if (!receiver.endpoint->IsAlive() || !receiver.endpoint->IsAwake()) {
      continue;
    }
    ++stats_.receptions_attempted;
    ++receiver.stats.receptions_attempted;
    // Mid-reception of a local frame: the remote frame is lost to overlap
    // (the local frame survives — see the header on the border model).
    const bool corrupted = receiver.endpoint->IsTransmitting() || !receiver.in_air.empty();
    ResolveReception(slot, sender, fragment, airtime, sim_->now(), corrupted);
  }
}

void Channel::FinishTransmit(uint64_t tx_id) {
  ActiveTx* slab_tx = ResolveTx(tx_id);
  if (slab_tx == nullptr) {
    return;
  }
  ActiveTx tx = std::move(*slab_tx);
  // Free the slot before delivering: OnFrameDelivered may transmit again, and
  // the slab must not hold a stale live entry while it does.
  const uint32_t tx_slot = static_cast<uint32_t>(tx_id & 0xffffffff) - 1;
  ++tx_slabs_[tx_slot].generation;
  tx_slabs_[tx_slot].live = false;
  free_tx_slots_.push_back(tx_slot);

  // Unregister every reception from its receiver's in-air list before the
  // first delivery: OnFrameDelivered may Transmit, and that must not find
  // this finished (and freed) transmission still in the air at a receiver
  // resolved later in the loop below. Cancelled receptions (the receiver
  // detached mid-flight) were already dropped by Detach.
  for (size_t i = 0; i < tx.receptions.size(); ++i) {
    const Reception& reception = tx.receptions[i];
    if (reception.cancelled) {
      continue;
    }
    auto& list = slots_[reception.slot].in_air;
    for (auto list_it = list.begin(); list_it != list.end(); ++list_it) {
      if (list_it->first == tx_id && list_it->second == i) {
        list.erase(list_it);
        break;
      }
    }
  }

  for (const Reception& reception : tx.receptions) {
    if (reception.cancelled || !slots_[reception.slot].endpoint->IsAlive()) {
      continue;
    }
    ResolveReception(reception.slot, tx.sender, tx.fragment, tx.duration, tx.start,
                     reception.corrupted);
  }
  tx.receptions.clear();
  recycled_receptions_.push_back(std::move(tx.receptions));
}

}  // namespace diffusion
