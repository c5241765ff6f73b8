// Propagation models.
//
// The paper's testbed exhibited range that "varies greatly depending on node
// position", asymmetric links, and intermittent connectivity (§6.4). The
// propagation interface separates *reachability* (whether energy from a
// transmitter arrives at a node at all — used for carrier sense and
// collisions) from *delivery probability* (whether an individual frame
// decodes — used for per-frame loss). A third, optional query narrows the
// receivers a transmission can reach so Channel need not probe every node.

#ifndef SRC_RADIO_PROPAGATION_H_
#define SRC_RADIO_PROPAGATION_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/radio/position.h"
#include "src/util/time.h"

namespace diffusion {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  // True if a transmission from `from` puts energy at `to` (interference and
  // carrier-sense range, not necessarily decodable).
  virtual bool Reaches(NodeId from, NodeId to) const = 0;

  // Probability that a single frame from `from` decodes at `to` at `now`,
  // given no collision. Zero when !Reaches(from, to).
  virtual double DeliveryProbability(NodeId from, NodeId to, SimTime now) const = 0;

  // Moves whenever some Reaches answer may have changed; Channel rebuilds its
  // cached per-sender receiver lists when it does. A static model keeps the
  // constant default. A mutable model calls BumpReachVersion in every
  // mutator that can change Reaches. Every decorator or wrapper around
  // another model must override this and add the inner model's version to
  // its own: the default only sees the wrapper's own bumps, so a wrapper
  // that forgets keeps Channel on stale lists once the inner model changes.
  virtual uint64_t reach_version() const { return reach_version_; }

  // Appends to `out` a superset of the nodes a transmission from `from`
  // reaches — every `to` with Reaches(from, to), each at most once, in any
  // order — and returns true. The default returns false and appends
  // nothing: the model cannot narrow the set, and Channel then probes every
  // attached endpoint. A wrapper may forward this to its inner model only if
  // its own Reaches never answers true where the inner model's does not;
  // one that does not override it stays correct, just slower.
  virtual bool ReachCandidates(NodeId /*from*/, std::vector<NodeId>* /*out*/) const {
    return false;
  }

 protected:
  void BumpReachVersion() { ++reach_version_; }

 private:
  uint64_t reach_version_ = 0;
};

// Per-directed-link quality override.
struct LinkQuality {
  double delivery_probability = 1.0;
  // Intermittent links (§6.4) alternate between working and dead phases.
  bool intermittent = false;
  SimDuration period = 60 * kSecond;
  double on_fraction = 0.5;  // each period opens with its on-window
};

// Unit-disk reachability from positions, with optional per-link quality
// overrides (including making a link asymmetric or intermittent) and a
// default delivery probability for unlisted links. Links to other floors are
// only reachable if explicitly listed or `inter_floor_range` > 0.
//
// ReachCandidates answers from a uniform grid over the positions, built on
// the first query after any mutation: square cells no smaller than the larger
// of the two ranges, so every node in range of a sender lies in the 3×3
// cells around it; link-override targets are added on top. The lazy build
// happens inside a const query, so the model is thread-compatible like the
// Channel that owns it.
class DiskPropagation : public PropagationModel {
 public:
  DiskPropagation(double range, double default_delivery_probability = 1.0);

  // Positions are a vector indexed by offset from a base id at or below the
  // lowest positioned one, so Reaches looks both ends up without hashing.
  // Ids stay opaque 32-bit values, but the positioned ones must lie within a
  // span of this many (a 1024x1024 grid numbered from anywhere); SetPosition
  // aborts on an id that would widen the span beyond it.
  static constexpr NodeId kMaxPositionSpan = 1 << 20;

  void SetPosition(NodeId node, Position position);
  // Overrides quality of the directed link from -> to. Also forces the link
  // to be considered reachable regardless of distance.
  void SetLinkQuality(NodeId from, NodeId to, LinkQuality quality);
  // Removes the directed link entirely (models an obstruction).
  void BlockLink(NodeId from, NodeId to);
  // Range applied across floors; zero (default) blocks inter-floor links
  // unless explicitly overridden.
  void set_inter_floor_range(double range) {
    inter_floor_range_ = range;
    BumpReachVersion();
  }

  bool Reaches(NodeId from, NodeId to) const override;
  double DeliveryProbability(NodeId from, NodeId to, SimTime now) const override;
  // Declines (full walk) while some position is non-finite or more than
  // 2^30 cells from the origin, where cell indices would lose precision.
  bool ReachCandidates(NodeId from, std::vector<NodeId>* out) const override;

  const Position* GetPosition(NodeId node) const;

  // Geometry the spatial region partition (src/radio/region_map.h) needs to
  // bound which regions a node's transmissions can reach.
  double range() const { return range_; }
  double inter_floor_range() const { return inter_floor_range_; }

  // Targets of explicit SetLinkQuality overrides from `from`, ascending.
  // Overridden links are reachable regardless of distance, so the region
  // link matrix must treat them as potential cross-region edges. (Blocked
  // links are not subtracted: the matrix only needs a conservative
  // superset.)
  std::vector<NodeId> LinkOverrideTargets(NodeId from) const;

  // Heap bytes held: the dense position table, the link overrides and the
  // candidate grid (src/util/memory_bytes.h).
  size_t MemoryBytes() const;

 private:
  using LinkKey = uint64_t;
  static LinkKey MakeKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  // Grid cell coordinates packed into one sortable key.
  static uint64_t CellKey(int64_t col, int64_t row) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(col)) << 32) |
           static_cast<uint32_t>(row);
  }
  // The cell holding `position`; false where the grid cannot index it.
  bool CellOf(const Position& position, int64_t* col, int64_t* row) const;
  // Rebuilds grid_ if a mutator ran since the last build.
  void RefreshGrid() const;

  double range_;
  double inter_floor_range_ = 0.0;
  double default_delivery_probability_;
  struct Placement {
    Position position;
    bool placed = false;
  };
  NodeId first_id_ = 0;               // the id positions_[0] belongs to
  std::vector<Placement> positions_;  // indexed by id - first_id_
  NodeId low_ = 0;                    // lowest and highest positioned ids
  NodeId high_ = 0;
  std::unordered_map<LinkKey, LinkQuality> link_quality_;
  std::unordered_map<LinkKey, bool> blocked_;

  // The candidate grid, valid while grid_version_ == reach_version(): every
  // mutator that can move a position, a range or an override bumps that.
  struct GridEntry {
    uint64_t cell;
    NodeId node;
  };
  mutable uint64_t grid_version_ = ~uint64_t{0};
  mutable bool grid_usable_ = false;
  mutable double cell_size_ = 1.0;
  mutable std::vector<GridEntry> grid_;  // sorted by (cell, node)
};

// Explicit topology: only listed directed links exist. Useful for tests and
// for reproducing a measured testbed connectivity graph exactly.
class ExplicitTopology : public PropagationModel {
 public:
  void AddLink(NodeId from, NodeId to, LinkQuality quality = LinkQuality{});
  // Adds both directions with the same quality.
  void AddSymmetricLink(NodeId a, NodeId b, LinkQuality quality = LinkQuality{});
  void RemoveLink(NodeId from, NodeId to);

  bool Reaches(NodeId from, NodeId to) const override;
  double DeliveryProbability(NodeId from, NodeId to, SimTime now) const override;
  // The targets of `from`'s listed links.
  bool ReachCandidates(NodeId from, std::vector<NodeId>* out) const override;

 private:
  std::map<std::pair<NodeId, NodeId>, LinkQuality> links_;
};

// Shared helper: evaluates a LinkQuality at a point in time (handles the
// intermittent on/off windows).
double EvaluateLinkQuality(const LinkQuality& quality, SimTime now);

}  // namespace diffusion

#endif  // SRC_RADIO_PROPAGATION_H_
