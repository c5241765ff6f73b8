#include "src/radio/propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/memory_bytes.h"

namespace diffusion {

double EvaluateLinkQuality(const LinkQuality& quality, SimTime now) {
  if (!quality.intermittent) {
    return quality.delivery_probability;
  }
  if (quality.period <= 0) {
    return quality.delivery_probability;
  }
  const SimDuration offset = (now % quality.period + quality.period) % quality.period;
  const SimDuration on_window =
      static_cast<SimDuration>(quality.on_fraction * static_cast<double>(quality.period));
  return offset < on_window ? quality.delivery_probability : 0.0;
}

DiskPropagation::DiskPropagation(double range, double default_delivery_probability)
    : range_(range), default_delivery_probability_(default_delivery_probability) {}

void DiskPropagation::SetPosition(NodeId node, Position position) {
  if (positions_.empty()) {
    first_id_ = low_ = high_ = node;
  }
  const NodeId low = std::min(node, low_);
  const NodeId high = std::max(node, high_);
  if (high - low >= kMaxPositionSpan) {
    std::fprintf(stderr,
                 "DiskPropagation: node id %u would widen the positioned ids past %u "
                 "(ids %u..%u)\n",
                 node, kMaxPositionSpan, low, high);
    std::abort();
  }
  low_ = low;
  high_ = high;
  if (node < first_id_) {
    // Grow downward by at least the current size, so ids set in descending
    // order (a hash map's iteration order) cost amortized O(1) each. The
    // table never reaches below the lowest id the span bound still allows.
    const NodeId floor_id = high_ >= kMaxPositionSpan ? high_ - (kMaxPositionSpan - 1) : 0;
    const auto room = static_cast<NodeId>(std::min<size_t>(positions_.size(), node - floor_id));
    const NodeId new_first = node - room;
    positions_.insert(positions_.begin(), first_id_ - new_first, Placement{});
    first_id_ = new_first;
  }
  const size_t index = node - first_id_;
  if (index >= positions_.size()) {
    positions_.resize(index + 1);
  }
  positions_[index] = Placement{position, true};
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
  // An id below first_id_ wraps to an index past the end.
  const size_t index = node - first_id_;
  return index < positions_.size() && positions_[index].placed ? &positions_[index].position
                                                               : nullptr;
}

size_t DiskPropagation::MemoryBytes() const {
  return VectorBytes(positions_) + HashMapBytes(link_quality_) + HashMapBytes(blocked_) +
         VectorBytes(grid_);
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
  if (from == to || (!blocked_.empty() && blocked_.contains(MakeKey(from, to)))) {
    return false;
  }
  if (!link_quality_.empty() && link_quality_.contains(MakeKey(from, to))) {
    return true;
  }
  const Position* from_position = GetPosition(from);
  const Position* to_position = GetPosition(to);
  if (from_position == nullptr || to_position == nullptr) {
    return false;
  }
  const double distance = Distance(*from_position, *to_position);
  if (from_position->floor != to_position->floor) {
    return inter_floor_range_ > 0.0 && distance <= inter_floor_range_;
  }
  return distance <= range_;
}

bool DiskPropagation::CellOf(const Position& position, int64_t* col, int64_t* row) const {
  // Beyond 2^30 cells a double quotient no longer resolves cell borders to
  // the precision the 3×3 argument needs; the negated test also rejects NaN.
  constexpr double kMaxCell = 1 << 30;
  const double x = position.x / cell_size_;
  const double y = position.y / cell_size_;
  if (!(std::abs(x) <= kMaxCell && std::abs(y) <= kMaxCell)) {
    return false;
  }
  *col = static_cast<int64_t>(std::floor(x));
  *row = static_cast<int64_t>(std::floor(y));
  return true;
}

void DiskPropagation::RefreshGrid() const {
  if (grid_version_ == PropagationModel::reach_version()) {
    return;
  }
  grid_version_ = PropagationModel::reach_version();
  // Two nodes in range differ by at most the range along each axis, so their
  // cells are adjacent. The 2^-20 pad absorbs the rounding of the distance
  // and of the quotients in CellOf, which stays below 2^-22 of a cell there.
  const double reach = std::max(range_, inter_floor_range_);
  cell_size_ = reach > 0.0 ? reach * (1.0 + 1.0 / (1 << 20)) : 1.0;
  grid_.clear();
  grid_.reserve(positions_.size());
  grid_usable_ = true;
  for (size_t index = 0; index < positions_.size(); ++index) {
    if (!positions_[index].placed) {
      continue;
    }
    int64_t col = 0;
    int64_t row = 0;
    if (!CellOf(positions_[index].position, &col, &row)) {
      grid_usable_ = false;
      break;
    }
    grid_.push_back(GridEntry{CellKey(col, row), static_cast<NodeId>(first_id_ + index)});
  }
  if (!grid_usable_) {
    grid_.clear();
  }
  std::sort(grid_.begin(), grid_.end(), [](const GridEntry& a, const GridEntry& b) {
    return a.cell != b.cell ? a.cell < b.cell : a.node < b.node;
  });
}

bool DiskPropagation::ReachCandidates(NodeId from, std::vector<NodeId>* out) const {
  RefreshGrid();
  if (!grid_usable_) {
    return false;
  }
  const size_t first = out->size();
  // Without a position `from` reaches only its override targets.
  if (const Position* position = GetPosition(from); position != nullptr) {
    int64_t col = 0;
    int64_t row = 0;
    CellOf(*position, &col, &row);  // indexable: the grid holds it
    for (int64_t dc = -1; dc <= 1; ++dc) {
      for (int64_t dr = -1; dr <= 1; ++dr) {
        const uint64_t cell = CellKey(col + dc, row + dr);
        auto entry = std::lower_bound(
            grid_.begin(), grid_.end(), cell,
            [](const GridEntry& e, uint64_t key) { return e.cell < key; });
        for (; entry != grid_.end() && entry->cell == cell; ++entry) {
          out->push_back(entry->node);
        }
      }
    }
  }
  const std::vector<NodeId> forced = LinkOverrideTargets(from);
  if (!forced.empty()) {
    out->insert(out->end(), forced.begin(), forced.end());
    // An override target may also sit in the 3×3 cells.
    std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
    out->erase(std::unique(out->begin() + static_cast<std::ptrdiff_t>(first), out->end()),
               out->end());
  }
  return true;
}

double DiskPropagation::DeliveryProbability(NodeId from, NodeId to, SimTime now) const {
  if (!Reaches(from, to)) {
    return 0.0;
  }
  if (!link_quality_.empty()) {
    auto it = link_quality_.find(MakeKey(from, to));
    if (it != link_quality_.end()) {
      return EvaluateLinkQuality(it->second, now);
    }
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

bool ExplicitTopology::ReachCandidates(NodeId from, std::vector<NodeId>* out) const {
  for (auto it = links_.lower_bound({from, 0}); it != links_.end() && it->first.first == from;
       ++it) {
    out->push_back(it->first.second);
  }
  return true;
}

double ExplicitTopology::DeliveryProbability(NodeId from, NodeId to, SimTime now) const {
  auto it = links_.find({from, to});
  if (it == links_.end()) {
    return 0.0;
  }
  return EvaluateLinkQuality(it->second, now);
}

}  // namespace diffusion
