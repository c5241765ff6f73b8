// Propagation decorator that applies link-level faults.
//
// Wraps the experiment's real PropagationModel and lets the FaultInjector
// sever or degrade links at runtime without touching the underlying model:
// blackouts and partitions make Reaches() false (the link disappears from
// carrier sense and interference too, as if an obstruction appeared), while
// degradations cap DeliveryProbability — they can only make a link worse than
// the inner model says, never better.

#ifndef SRC_FAULT_FAULT_OVERLAY_H_
#define SRC_FAULT_FAULT_OVERLAY_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/radio/propagation.h"

namespace diffusion {

class FaultOverlayPropagation : public PropagationModel {
 public:
  explicit FaultOverlayPropagation(std::unique_ptr<PropagationModel> inner)
      : inner_(std::move(inner)) {}

  // ---- fault surface (driven by FaultInjector) ----

  // Only blackouts, partitions and the calls that clear them change Reaches,
  // so only they bump the reach version; degrades leave it alone.
  void BlackoutLink(NodeId from, NodeId to) {
    blackouts_.insert(MakeKey(from, to));
    BumpReachVersion();
  }
  void DegradeLink(NodeId from, NodeId to, double delivery) {
    degraded_[MakeKey(from, to)] = delivery;
  }
  // Removes both the blackout and the degrade override of from -> to.
  void RestoreLink(NodeId from, NodeId to) {
    blackouts_.erase(MakeKey(from, to));
    degraded_.erase(MakeKey(from, to));
    BumpReachVersion();
  }
  // Caps delivery on every link `node` participates in, either direction.
  void DegradeNode(NodeId node, double delivery) { node_degrade_[node] = delivery; }

  // Severs every link between a group_a node and a group_b node. Replaces any
  // previous partition. Nodes in neither group keep all their links.
  void Partition(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b) {
    partition_side_.clear();
    for (NodeId node : group_a) partition_side_[node] = 0;
    for (NodeId node : group_b) partition_side_[node] = 1;
    BumpReachVersion();
  }

  // Clears every overlay override (blackouts, degradations, partition).
  void Heal() {
    blackouts_.clear();
    degraded_.clear();
    node_degrade_.clear();
    partition_side_.clear();
    BumpReachVersion();
  }

  // ---- PropagationModel ----

  bool Reaches(NodeId from, NodeId to) const override {
    if (Severed(from, to)) {
      return false;
    }
    return inner_->Reaches(from, to);
  }

  double DeliveryProbability(NodeId from, NodeId to, SimTime now) const override {
    if (Severed(from, to)) {
      return 0.0;
    }
    double probability = inner_->DeliveryProbability(from, to, now);
    if (auto it = degraded_.find(MakeKey(from, to)); it != degraded_.end()) {
      probability = std::min(probability, it->second);
    }
    if (auto it = node_degrade_.find(from); it != node_degrade_.end()) {
      probability = std::min(probability, it->second);
    }
    if (auto it = node_degrade_.find(to); it != node_degrade_.end()) {
      probability = std::min(probability, it->second);
    }
    return probability;
  }

  uint64_t reach_version() const override {
    return PropagationModel::reach_version() + inner_->reach_version();
  }

  // Faults only remove links, so the inner model's superset still holds.
  bool ReachCandidates(NodeId from, std::vector<NodeId>* out) const override {
    return inner_->ReachCandidates(from, out);
  }

  PropagationModel& inner() { return *inner_; }

 private:
  using LinkKey = uint64_t;
  static LinkKey MakeKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  bool Severed(NodeId from, NodeId to) const {
    if (blackouts_.contains(MakeKey(from, to))) {
      return true;
    }
    if (!partition_side_.empty()) {
      auto a = partition_side_.find(from);
      auto b = partition_side_.find(to);
      if (a != partition_side_.end() && b != partition_side_.end() && a->second != b->second) {
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<PropagationModel> inner_;
  std::unordered_set<LinkKey> blackouts_;
  std::unordered_map<LinkKey, double> degraded_;
  std::unordered_map<NodeId, double> node_degrade_;
  std::unordered_map<NodeId, int> partition_side_;
};

}  // namespace diffusion

#endif  // SRC_FAULT_FAULT_OVERLAY_H_
