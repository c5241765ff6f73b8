#include "src/radio/channel.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

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
    slots_.emplace_back();
  }
  return it->second;
}

void Channel::RefreshRanks() {
  if (rank_epoch_ == epoch_) {
    return;
  }
  rank_epoch_ = epoch_;
  uint32_t rank = 0;
  for (const auto& entry : endpoints_) {
    slots_[slot_of_.at(entry.first)].rank = rank++;
  }
}

const std::vector<Channel::Receiver>& Channel::ReceiversOf(uint32_t sender_slot, NodeId sender,
                                                           bool ascending) {
  ReceiverList& list = slots_[sender_slot].list;
  const uint64_t reach_version = propagation_->reach_version();
  if (list.epoch == epoch_ && list.reach_version == reach_version && list.ascending == ascending) {
    return list.receivers;
  }
  list.epoch = epoch_;
  list.reach_version = reach_version;
  list.ascending = ascending;
  list.receivers.clear();
  candidates_.clear();
  if (propagation_->ReachCandidates(sender, &candidates_)) {
    for (NodeId node : candidates_) {
      if (node == sender) {
        continue;
      }
      const auto it = slot_of_.find(node);
      if (it == slot_of_.end() || slots_[it->second].endpoint == nullptr) {
        continue;  // not attached here
      }
      if (propagation_->Reaches(sender, node)) {
        list.receivers.push_back(Receiver{node, slots_[it->second].endpoint, it->second});
      }
    }
    if (!ascending) {
      // The full walk's order, whichever order the candidates came in.
      RefreshRanks();
      std::sort(list.receivers.begin(), list.receivers.end(),
                [this](const Receiver& a, const Receiver& b) {
                  return slots_[a.slot].rank < slots_[b.slot].rank;
                });
    }
  } else {
    for (const auto& [node, endpoint] : endpoints_) {
      if (node == sender) {
        continue;
      }
      if (propagation_->Reaches(sender, node)) {
        list.receivers.push_back(Receiver{node, endpoint, slot_of_.at(node)});
      }
    }
  }
  if (ascending) {
    std::sort(list.receivers.begin(), list.receivers.end(),
              [](const Receiver& a, const Receiver& b) { return a.node < b.node; });
  }
  return list.receivers;
}

void Channel::Attach(ChannelEndpoint* endpoint) {
  const NodeId node = endpoint->node_id();
  ++epoch_;
  endpoints_[node] = endpoint;
  // Restore counters parked by a previous Detach (a reattach after a
  // blackout), and remember their value now so NodeStatsSinceAttach can
  // report this attachment's traffic free of pre-fault history.
  auto parked = parked_stats_.find(node);
  if (parked != parked_stats_.end()) {
    node_stats_[node] = parked->second;
    parked_stats_.erase(parked);
  }
  attach_base_[node] = node_stats_[node];
  ReceiverSlot& slot = slots_[SlotIndex(node)];
  slot.stats = &node_stats_[node];
  slot.endpoint = endpoint;
}

void Channel::Detach(NodeId node) {
  ++epoch_;
  endpoints_.erase(node);
  auto stats_it = node_stats_.find(node);
  if (stats_it != node_stats_.end()) {
    parked_stats_[node] = stats_it->second;
    node_stats_.erase(stats_it);
  }
  attach_base_.erase(node);
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
    slot.stats = nullptr;  // parked; refreshed by the next Attach
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

ChannelStats Channel::NodeStats(NodeId node) const {
  auto live = node_stats_.find(node);
  if (live != node_stats_.end()) {
    return live->second;
  }
  auto parked = parked_stats_.find(node);
  return parked != parked_stats_.end() ? parked->second : ChannelStats{};
}

ChannelStats Channel::NodeStatsSinceAttach(NodeId node) const {
  auto base = attach_base_.find(node);
  if (base == attach_base_.end()) {
    // Not currently attached: this attachment contributed nothing yet.
    return ChannelStats{};
  }
  return NodeStats(node) - base->second;
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
  // A sender that is not attached has no slot stats; count it by id.
  ChannelStats* sender_stats = slots_[sender_slot].stats;
  ++(sender_stats != nullptr ? *sender_stats : node_stats_[sender]).transmissions;

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
  for (const Receiver& receiver : ReceiversOf(sender_slot, sender, /*ascending=*/false)) {
    ChannelEndpoint* endpoint = receiver.endpoint;
    if (!endpoint->IsAlive() || !endpoint->IsAwake()) {
      continue;
    }
    ReceiverSlot& slot = slots_[receiver.slot];
    ++stats_.receptions_attempted;
    ++slot.stats->receptions_attempted;
    bool corrupted = endpoint->IsTransmitting();
    // Overlap with anything already in the air at this receiver corrupts
    // both frames (no capture).
    if (!slot.in_air.empty()) {
      corrupted = true;
      for (const auto& [other_tx, index] : slot.in_air) {
        ResolveTx(other_tx)->receptions[index].corrupted = true;
      }
    }
    tx.receptions.push_back(
        Reception{receiver.node, receiver.slot, corrupted, false, endpoint, slot.stats});
    slot.in_air.emplace_back(tx_id, tx.receptions.size() - 1);
  }

  if (transmit_observer_ != nullptr) {
    transmit_observer_->OnTransmit(sender, tx.fragment, tx.start, duration);
  }

  tx_slabs_[static_cast<uint32_t>(tx_id & 0xffffffff) - 1].tx = std::move(tx);
  sim_->After(duration, [this, tx_id] { FinishTransmit(tx_id); });
}

void Channel::DeliverRemote(NodeId sender, const Fragment& fragment, SimDuration airtime) {
  const uint64_t link_packet = (static_cast<uint64_t>(fragment.src) << 32) | fragment.message_seq;
  // OnFrameDelivered may Transmit, which can add a slot (moving this list)
  // and build another sender's list, but never rebuild this one (the sender
  // is not attached here): index, and re-fetch the list every step.
  const uint32_t sender_slot = SlotIndex(sender);
  ReceiversOf(sender_slot, sender, /*ascending=*/true);
  for (size_t i = 0; i < slots_[sender_slot].list.receivers.size(); ++i) {
    const Receiver receiver = slots_[sender_slot].list.receivers[i];
    const NodeId node = receiver.node;
    ChannelEndpoint* endpoint = receiver.endpoint;
    if (!endpoint->IsAlive() || !endpoint->IsAwake()) {
      continue;
    }
    const ReceiverSlot& slot = slots_[receiver.slot];
    ++stats_.receptions_attempted;
    ChannelStats& receiver_stats = *slot.stats;
    ++receiver_stats.receptions_attempted;
    // Mid-reception of a local frame: the remote frame is lost to overlap
    // (the local frame survives — see the header on the border model).
    if (endpoint->IsTransmitting() || !slot.in_air.empty()) {
      ++stats_.collisions;
      ++receiver_stats.collisions;
      if (sim_->tracing()) {
        sim_->Trace(
            TraceEvent{sim_->now(), TraceEventKind::kCollision, node, sender, link_packet, 0});
      }
      continue;
    }
    const double probability = propagation_->DeliveryProbability(sender, node, sim_->now());
    if (!rng_.NextBool(probability)) {
      ++stats_.propagation_losses;
      ++receiver_stats.propagation_losses;
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kPropagationLoss, node, sender,
                               link_packet, 0});
      }
      continue;
    }
    ++stats_.deliveries;
    ++receiver_stats.deliveries;
    endpoint->OnFrameDelivered(fragment, airtime);
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

  const uint64_t link_packet =
      (static_cast<uint64_t>(tx.fragment.src) << 32) | tx.fragment.message_seq;
  for (const Reception& reception : tx.receptions) {
    if (reception.cancelled) {
      continue;
    }
    ChannelEndpoint* endpoint = reception.endpoint;
    ChannelStats* receiver_stats = reception.stats;
    if (!endpoint->IsAlive()) {
      continue;
    }
    if (reception.corrupted) {
      ++stats_.collisions;
      ++receiver_stats->collisions;
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kCollision, reception.receiver,
                               tx.sender, link_packet, 0});
      }
      continue;
    }
    const double probability =
        propagation_->DeliveryProbability(tx.sender, reception.receiver, tx.start);
    if (!rng_.NextBool(probability)) {
      ++stats_.propagation_losses;
      ++receiver_stats->propagation_losses;
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kPropagationLoss, reception.receiver,
                               tx.sender, link_packet, 0});
      }
      continue;
    }
    ++stats_.deliveries;
    ++receiver_stats->deliveries;
    endpoint->OnFrameDelivered(tx.fragment, tx.duration);
  }
  tx.receptions.clear();
  recycled_receptions_.push_back(std::move(tx.receptions));
}

}  // namespace diffusion
