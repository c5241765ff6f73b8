// Spatial region partition for the sharded simulation core.
//
// RegionMap cuts the node field into a rows×cols grid of rectangular cells
// over the DiskPropagation coordinates; every node belongs to exactly one
// cell (a region). RegionLinkMatrix then derives, conservatively, which
// other regions each node can transmit into — some point of the region's
// cell is within radio range of it, or it holds an explicit link-quality
// override onto one of the region's nodes — and the smallest frame airtime,
// which bounds the conservative lookahead window: any window no longer than
// the minimum on-air duration guarantees a frame started inside window k
// cannot finish before barrier k+1 (see src/sim/sharded_engine.h).

#ifndef SRC_RADIO_REGION_MAP_H_
#define SRC_RADIO_REGION_MAP_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/radio/mac.h"
#include "src/radio/position.h"
#include "src/radio/propagation.h"
#include "src/util/time.h"

namespace diffusion {

class RegionMap {
 public:
  struct Rect {
    double x_min = 0.0;
    double x_max = 0.0;
    double y_min = 0.0;
    double y_max = 0.0;
  };

  // Partitions `nodes` (any order; sorted internally so the map is a pure
  // function of the node set) into a grid of at most `target_regions` cells
  // over the bounding box of their `positions`. Nodes without a position
  // land in region 0. target_regions < 1 behaves as 1.
  RegionMap(const std::vector<NodeId>& nodes,
            const std::unordered_map<NodeId, Position>& positions, int target_regions);

  int regions() const { return rows_ * cols_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // Region of `node`; -1 for nodes not in the map. A binary search: ids are
  // opaque 32-bit values, so no table is sized by the largest one.
  int RegionOf(NodeId node) const;

  // Node ids of a region, ascending.
  const std::vector<NodeId>& nodes_in(int region) const {
    return members_[static_cast<size_t>(region)];
  }

  // The cell rectangle of a region (cells tile the bounding box exactly).
  Rect CellBounds(int region) const;

  // Distance from a point to the nearest point of `rect` (zero inside).
  static double DistanceToRect(const Position& position, const Rect& rect);

 private:
  int rows_ = 1;
  int cols_ = 1;
  Rect bounds_;
  std::vector<std::pair<NodeId, int>> region_of_;  // (node, region), ascending
  std::vector<std::vector<NodeId>> members_;
};

// Which remote regions each node can transmit into, and the lookahead the
// radio configuration supports.
class RegionLinkMatrix {
 public:
  // `propagation` supplies geometry (positions, range, overrides) and `mac`
  // the timing (bitrate, per-frame overhead). The targets are a conservative
  // superset: a listed region may never hear the node, but an unlisted one
  // cannot — the bridge hands it none of the node's frames.
  RegionLinkMatrix(const RegionMap& map, const DiskPropagation& propagation,
                   const MacConfig& mac);

  // Regions other than the node's own that a transmission from `node` may
  // reach, ascending. Empty for interior nodes — the common case, making the
  // per-transmission observer test one vector-size check.
  const std::vector<int>& RemoteTargets(NodeId node) const;

  // Smallest possible on-air frame duration (an empty fragment: header plus
  // per-frame overhead). A window no longer than this never defers a
  // cross-region delivery past its true finish time.
  SimDuration min_frame_airtime() const { return min_frame_airtime_; }

 private:
  std::vector<int> empty_;
  std::unordered_map<NodeId, std::vector<int>> remote_targets_;
  SimDuration min_frame_airtime_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_REGION_MAP_H_
