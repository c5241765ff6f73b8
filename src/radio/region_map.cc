#include "src/radio/region_map.h"

#include <algorithm>
#include <cmath>

#include "src/radio/fragmentation.h"

namespace diffusion {

RegionMap::RegionMap(const std::vector<NodeId>& nodes,
                     const std::unordered_map<NodeId, Position>& positions,
                     int target_regions) {
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  bool first = true;
  for (NodeId node : sorted) {
    auto it = positions.find(node);
    if (it == positions.end()) {
      continue;
    }
    if (first) {
      bounds_ = Rect{it->second.x, it->second.x, it->second.y, it->second.y};
      first = false;
    } else {
      bounds_.x_min = std::min(bounds_.x_min, it->second.x);
      bounds_.x_max = std::max(bounds_.x_max, it->second.x);
      bounds_.y_min = std::min(bounds_.y_min, it->second.y);
      bounds_.y_max = std::max(bounds_.y_max, it->second.y);
    }
  }

  // rows×cols ≤ target, near-square. The grid may have empty cells; they
  // just idle at each window.
  const int target = std::max(1, target_regions);
  cols_ = std::max(1, static_cast<int>(std::floor(std::sqrt(static_cast<double>(target)))));
  rows_ = std::max(1, target / cols_);
  // Orient the longer grid axis along the longer field axis.
  const bool wide = (bounds_.x_max - bounds_.x_min) >= (bounds_.y_max - bounds_.y_min);
  if ((wide && rows_ > cols_) || (!wide && cols_ > rows_)) {
    std::swap(rows_, cols_);
  }

  members_.assign(static_cast<size_t>(regions()), {});
  const double width = bounds_.x_max - bounds_.x_min;
  const double height = bounds_.y_max - bounds_.y_min;
  for (NodeId node : sorted) {
    int region = 0;
    auto it = positions.find(node);
    if (it != positions.end()) {
      int col = width > 0.0 ? static_cast<int>((it->second.x - bounds_.x_min) / width *
                                               static_cast<double>(cols_))
                            : 0;
      int row = height > 0.0 ? static_cast<int>((it->second.y - bounds_.y_min) / height *
                                                static_cast<double>(rows_))
                             : 0;
      col = std::clamp(col, 0, cols_ - 1);
      row = std::clamp(row, 0, rows_ - 1);
      region = row * cols_ + col;
    }
    region_of_.emplace_back(node, region);  // `sorted` keeps it ascending
    members_[static_cast<size_t>(region)].push_back(node);
  }
}

int RegionMap::RegionOf(NodeId node) const {
  const auto it = std::lower_bound(region_of_.begin(), region_of_.end(), node,
                                   [](const std::pair<NodeId, int>& entry, NodeId id) {
                                     return entry.first < id;
                                   });
  return it != region_of_.end() && it->first == node ? it->second : -1;
}

RegionMap::Rect RegionMap::CellBounds(int region) const {
  const int row = region / cols_;
  const int col = region % cols_;
  const double cell_w = (bounds_.x_max - bounds_.x_min) / static_cast<double>(cols_);
  const double cell_h = (bounds_.y_max - bounds_.y_min) / static_cast<double>(rows_);
  return Rect{bounds_.x_min + cell_w * col, bounds_.x_min + cell_w * (col + 1),
              bounds_.y_min + cell_h * row, bounds_.y_min + cell_h * (row + 1)};
}

double RegionMap::DistanceToRect(const Position& position, const Rect& rect) {
  const double dx = std::max({rect.x_min - position.x, 0.0, position.x - rect.x_max});
  const double dy = std::max({rect.y_min - position.y, 0.0, position.y - rect.y_max});
  return std::sqrt(dx * dx + dy * dy);
}

RegionLinkMatrix::RegionLinkMatrix(const RegionMap& map, const DiskPropagation& propagation,
                                   const MacConfig& mac)
    : regions_(map.regions()) {
  linked_.assign(static_cast<size_t>(regions_) * static_cast<size_t>(regions_), false);
  const double bits = static_cast<double>(Fragment::kHeaderBytes + mac.frame_overhead_bytes) * 8.0;
  min_frame_airtime_ = std::max<SimDuration>(
      1, static_cast<SimDuration>(bits / mac.bitrate_bps * static_cast<double>(kSecond)));

  // A node reaches into a region if its disk (range, or the inter-floor
  // range if larger — conservative) touches the region's cell, or it has an
  // explicit link override onto one of the region's nodes.
  const double reach = std::max(propagation.range(), propagation.inter_floor_range());
  for (int src = 0; src < regions_; ++src) {
    for (NodeId node : map.nodes_in(src)) {
      std::vector<int> targets;
      const Position* position = propagation.GetPosition(node);
      if (position != nullptr) {
        for (int dst = 0; dst < regions_; ++dst) {
          if (dst == src || map.nodes_in(dst).empty()) {
            continue;
          }
          if (RegionMap::DistanceToRect(*position, map.CellBounds(dst)) <= reach) {
            targets.push_back(dst);
          }
        }
      }
      for (NodeId forced : propagation.LinkOverrideTargets(node)) {
        const int dst = map.RegionOf(forced);
        if (dst >= 0 && dst != src &&
            std::find(targets.begin(), targets.end(), dst) == targets.end()) {
          targets.push_back(dst);
        }
      }
      std::sort(targets.begin(), targets.end());
      if (!targets.empty()) {
        for (int dst : targets) {
          linked_[static_cast<size_t>(src) * static_cast<size_t>(regions_) +
                  static_cast<size_t>(dst)] = true;
        }
        remote_targets_[node] = std::move(targets);
      }
    }
  }
  for (bool linked : linked_) {
    linked_pairs_ += linked ? 1 : 0;
  }
}

const std::vector<int>& RegionLinkMatrix::RemoteTargets(NodeId node) const {
  auto it = remote_targets_.find(node);
  return it != remote_targets_.end() ? it->second : empty_;
}

}  // namespace diffusion
