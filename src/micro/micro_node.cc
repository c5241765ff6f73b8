#include "src/micro/micro_node.h"

namespace diffusion {

MicroNode::MicroNode(Simulator* sim, Channel* channel, NodeId id, RadioConfig config)
    : sim_(sim), id_(id), radio_(sim, channel, id, config) {
  radio_.SetReceiveCallback([this](NodeId from, const WireBody& body) {
    std::vector<uint8_t> bytes;
    body.AppendBytes(&bytes);
    OnRadioReceive(from, bytes);
  });
  sim_->After(interest_refresh_, [this] { RefreshInterests(); });
}

bool MicroNode::Subscribe(MicroTag tag, DataCallback callback) {
  for (Subscription& subscription : subscriptions_) {
    if (!subscription.used) {
      subscription.used = true;
      subscription.tag = tag;
      subscription.callback = std::move(callback);
      FloodInterest(tag);
      return true;
    }
  }
  return false;
}

bool MicroNode::Unsubscribe(MicroTag tag) {
  for (Subscription& subscription : subscriptions_) {
    if (subscription.used && subscription.tag == tag) {
      subscription.used = false;
      subscription.callback = nullptr;
      return true;
    }
  }
  return false;
}

bool MicroNode::SendData(MicroTag tag, int32_t value) {
  MicroMessage message;
  message.type = MessageType::kData;
  message.origin = id_;
  message.origin_seq = next_seq_++;
  message.ttl = 8;
  message.tag = tag;
  message.has_value = true;
  message.value = value;
  CacheCheckAndInsert(message.origin, message.origin_seq);
  HandleData(message, kBroadcastId);
  return true;
}

size_t MicroNode::ActiveGradients() const {
  size_t active = 0;
  for (const GradientSlot& slot : gradients_) {
    if (slot.used != 0) {
      ++active;
    }
  }
  return active;
}

void MicroNode::OnRadioReceive(NodeId from, const std::vector<uint8_t>& bytes) {
  MicroMessage message;
  if (!MicroDecode(bytes.data(), bytes.size(), &message)) {
    return;  // not a micro-shaped packet; a gateway handles those
  }
  switch (message.type) {
    case MessageType::kInterest:
      HandleInterest(message, from);
      break;
    case MessageType::kData:
    case MessageType::kExploratoryData:
      if (CacheCheckAndInsert(message.origin, message.origin_seq)) {
        ++stats_.cache_drops;
        return;
      }
      HandleData(message, from);
      break;
    default:
      break;  // micro-diffusion has no reinforcement
  }
}

void MicroNode::HandleInterest(const MicroMessage& message, NodeId from) {
  AddGradient(message.tag, from);
  if (CacheCheckAndInsert(message.origin, message.origin_seq)) {
    ++stats_.cache_drops;
    return;
  }
  if (message.ttl > 1) {
    MicroMessage out = message;
    --out.ttl;
    ++stats_.forwarded;
    Transmit(out);
  }
}

void MicroNode::HandleData(MicroMessage message, NodeId from) {
  // The limited filter hook: may suppress or rewrite the reading (§4.3's
  // planned in-network aggregation on motes).
  if (filter_ && !filter_(message.tag, &message.value)) {
    ++stats_.filter_suppressed;
    return;
  }
  for (const Subscription& subscription : subscriptions_) {
    if (subscription.used && subscription.tag == message.tag && subscription.callback) {
      subscription.callback(message.tag, message.value, message.origin);
      ++stats_.delivered;
    }
  }
  if (message.ttl > 1 && HasGradient(message.tag, from)) {
    MicroMessage out = message;
    --out.ttl;
    ++stats_.forwarded;
    Transmit(out);
  }
}

bool MicroNode::CacheCheckAndInsert(NodeId origin, uint32_t seq) {
  // "A cache of 10 packets of the 2 relevant bytes per packet": the cache
  // stores a 16-bit digest of (origin, seq). Digest collisions can drop a
  // fresh packet — a real cost of the 2-byte budget.
  const uint16_t digest = static_cast<uint16_t>((origin * 31 + seq) & 0xffff);
  for (uint16_t entry : cache_) {
    if (entry == digest) {
      return true;
    }
  }
  cache_[cache_cursor_] = digest;
  cache_cursor_ = static_cast<uint8_t>((cache_cursor_ + 1) % kCacheEntries);
  return false;
}

void MicroNode::Transmit(const MicroMessage& message) {
  uint8_t buffer[kMicroMaxWireSize];
  const size_t size = MicroEncode(message, buffer);
  radio_.SendMessage(kBroadcastId, std::vector<uint8_t>(buffer, buffer + size));
}

void MicroNode::FloodInterest(MicroTag tag) {
  MicroMessage message;
  message.type = MessageType::kInterest;
  message.origin = id_;
  message.origin_seq = next_seq_++;
  message.ttl = 8;
  message.tag = tag;
  CacheCheckAndInsert(message.origin, message.origin_seq);
  Transmit(message);
}

void MicroNode::RefreshInterests() {
  for (const Subscription& subscription : subscriptions_) {
    if (subscription.used) {
      FloodInterest(subscription.tag);
    }
  }
  // Age out expired gradients while we're here.
  const uint32_t now_s = static_cast<uint32_t>(sim_->now() / kSecond);
  for (GradientSlot& slot : gradients_) {
    if (slot.used != 0 && slot.expires_s < now_s) {
      slot.used = 0;
    }
  }
  sim_->After(interest_refresh_, [this] { RefreshInterests(); });
}

bool MicroNode::AddGradient(MicroTag tag, NodeId neighbor) {
  const uint32_t now_s = static_cast<uint32_t>(sim_->now() / kSecond);
  const uint32_t expires = now_s + gradient_lifetime_s_;
  GradientSlot* free_slot = nullptr;
  GradientSlot* oldest = nullptr;
  for (GradientSlot& slot : gradients_) {
    if (slot.used != 0 && slot.tag == tag && slot.neighbor == neighbor) {
      slot.expires_s = expires;
      return true;
    }
    if (slot.used == 0) {
      if (free_slot == nullptr) {
        free_slot = &slot;
      }
    } else if (slot.expires_s < now_s &&
               (oldest == nullptr || slot.expires_s < oldest->expires_s)) {
      oldest = &slot;
    }
  }
  GradientSlot* target = free_slot != nullptr ? free_slot : oldest;
  if (target == nullptr) {
    // Static table full of live gradients: the new one is dropped, exactly
    // the kind of hard limit an 8 KB device imposes.
    ++stats_.gradient_table_full;
    return false;
  }
  target->used = 1;
  target->tag = tag;
  target->neighbor = neighbor;
  target->expires_s = expires;
  return true;
}

bool MicroNode::HasGradient(MicroTag tag, NodeId exclude) const {
  for (const GradientSlot& slot : gradients_) {
    if (slot.used != 0 && slot.tag == tag && slot.neighbor != exclude) {
      return true;
    }
  }
  return false;
}

}  // namespace diffusion
