#include "src/radio/propagation.h"

#include <algorithm>

namespace diffusion {

double EvaluateLinkQuality(const LinkQuality& quality, SimTime now) {
  if (!quality.intermittent) {
    return quality.delivery_probability;
  }
  if (quality.period <= 0) {
    return quality.delivery_probability;
  }
  const SimDuration offset = ((now - quality.phase) % quality.period + quality.period) %
                             quality.period;
  const SimDuration on_window =
      static_cast<SimDuration>(quality.on_fraction * static_cast<double>(quality.period));
  return offset < on_window ? quality.delivery_probability : 0.0;
}

DiskPropagation::DiskPropagation(double range, double default_delivery_probability)
    : range_(range), default_delivery_probability_(default_delivery_probability) {}

void DiskPropagation::SetPosition(NodeId node, Position position) {
  positions_[node] = position;
  BumpReachVersion();
}

void DiskPropagation::SetLinkQuality(NodeId from, NodeId to, LinkQuality quality) {
  link_quality_[MakeKey(from, to)] = quality;
  blocked_.erase(MakeKey(from, to));
  BumpReachVersion();
}

void DiskPropagation::BlockLink(NodeId from, NodeId to) {
  blocked_[MakeKey(from, to)] = true;
  link_quality_.erase(MakeKey(from, to));
  BumpReachVersion();
}

const Position* DiskPropagation::GetPosition(NodeId node) const {
  auto it = positions_.find(node);
  return it != positions_.end() ? &it->second : nullptr;
}

std::vector<NodeId> DiskPropagation::LinkOverrideTargets(NodeId from) const {
  std::vector<NodeId> targets;
  for (const auto& [key, quality] : link_quality_) {
    if (static_cast<NodeId>(key >> 32) == from) {
      targets.push_back(static_cast<NodeId>(key & 0xffffffff));
    }
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

bool DiskPropagation::Reaches(NodeId from, NodeId to) const {
  if (from == to || blocked_.contains(MakeKey(from, to))) {
    return false;
  }
  if (link_quality_.contains(MakeKey(from, to))) {
    return true;
  }
  auto from_it = positions_.find(from);
  auto to_it = positions_.find(to);
  if (from_it == positions_.end() || to_it == positions_.end()) {
    return false;
  }
  const double distance = Distance(from_it->second, to_it->second);
  if (from_it->second.floor != to_it->second.floor) {
    return inter_floor_range_ > 0.0 && distance <= inter_floor_range_;
  }
  return distance <= range_;
}

double DiskPropagation::DeliveryProbability(NodeId from, NodeId to, SimTime now) const {
  if (!Reaches(from, to)) {
    return 0.0;
  }
  auto it = link_quality_.find(MakeKey(from, to));
  if (it != link_quality_.end()) {
    return EvaluateLinkQuality(it->second, now);
  }
  return default_delivery_probability_;
}

void ExplicitTopology::AddLink(NodeId from, NodeId to, LinkQuality quality) {
  links_[{from, to}] = quality;
  BumpReachVersion();
}

void ExplicitTopology::AddSymmetricLink(NodeId a, NodeId b, LinkQuality quality) {
  AddLink(a, b, quality);
  AddLink(b, a, quality);
}

void ExplicitTopology::RemoveLink(NodeId from, NodeId to) {
  links_.erase({from, to});
  BumpReachVersion();
}

bool ExplicitTopology::Reaches(NodeId from, NodeId to) const {
  return from != to && links_.contains({from, to});
}

double ExplicitTopology::DeliveryProbability(NodeId from, NodeId to, SimTime now) const {
  auto it = links_.find({from, to});
  if (it == links_.end()) {
    return 0.0;
  }
  return EvaluateLinkQuality(it->second, now);
}

}  // namespace diffusion
