// A complete sharded network: the testbed-level composition of the parallel
// simulation core.
//
// ShardedWorld takes any TestbedLayout and builds, per spatial region (see
// src/radio/region_map.h): a Simulator shard inside a ShardedEngine, a
// Channel with its own copy of the disk propagation (full geometry, local
// endpoints only), and the region's DiffusionNodes. A RegionBridge couples
// the channels across borders through mailboxes drained at each window
// barrier.
//
// Fidelity: a one-region world reproduces the monolithic sequential setup
// byte-for-byte (same seed, same construction order). With more regions the
// run is deterministic at any thread count, but differs from the monolithic
// run at region borders: cross-region frames cannot collide with (or be
// corrupted by) transmissions in the destination region that start after the
// frame was posted, and their delivery may be deferred to the next barrier
// when the window exceeds the frame's airtime. Within a region the radio
// model is exact.

#ifndef SRC_TESTBED_SHARDED_WORLD_H_
#define SRC_TESTBED_SHARDED_WORLD_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/node.h"
#include "src/radio/channel.h"
#include "src/radio/region_bridge.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/testbed/topology.h"

namespace diffusion {

struct ShardedWorldParams {
  // Target region count (the actual grid may be slightly smaller; see
  // RegionMap). 1 degenerates to the sequential engine.
  int regions = 4;
  // Worker threads; 0 = hardware concurrency. Output is identical for every
  // value (the determinism contract in src/sim/sharded_engine.h).
  unsigned threads = 1;
  // Conservative lookahead window; 0 picks max(min frame airtime, 1 ms) —
  // exact cross-region timing whenever the radio is slow enough that every
  // frame outlasts a millisecond (the 13 kb/s testbed radio), bounded
  // lateness otherwise. The 10k-node field world (parallel_scaling,
  // perfbench's field10k) on the 1.6 Mb/s SimulationRadioConfig() is the
  // bounded-lateness case: its frames last 130-450 us, so border deliveries
  // are clamped to the barrier (RegionBridge::deliveries_clamped).
  SimDuration window = 0;
  uint64_t seed = 1;
  double link_delivery = 0.98;
  DiffusionConfig diffusion{};
  RadioConfig radio{};
};

class ShardedWorld {
 public:
  ShardedWorld(const TestbedLayout& layout, const ShardedWorldParams& params);

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  ShardedEngine& engine() { return *engine_; }
  const RegionMap& region_map() const { return map_; }
  const RegionLinkMatrix& link_matrix() const { return matrix_; }
  const RegionBridge& bridge() const { return *bridge_; }
  SimDuration window() const { return engine_->window(); }

  DiffusionNode* node(NodeId id) { return nodes_.at(id).get(); }
  const std::map<NodeId, std::unique_ptr<DiffusionNode>>& nodes() const { return nodes_; }

  // The simulator shard that owns `id` — schedule application events (source
  // starts, fault plans) through this, never through another region's sim.
  Simulator& sim_of(NodeId id) { return engine_->region_sim(map_.RegionOf(id)); }
  Channel& channel_of(NodeId id) {
    return *channels_[static_cast<size_t>(map_.RegionOf(id))];
  }

  // See ShardedEngine::set_merged_trace_sink / RunUntil.
  void set_merged_trace_sink(TraceSink* sink) { engine_->set_merged_trace_sink(sink); }
  uint64_t RunUntil(SimTime end) { return engine_->RunUntil(end); }

  // Channel-wide counters summed over every region's channel.
  ChannelStats TotalChannelStats() const;

  // Publishes the bridge's handoff/clamp counters ("bridge.*", including the
  // per-region bridge.deliveries_clamped.r<N> family) as global metrics.
  // Collect between windows only; the world must outlive the registry's use.
  void RegisterBridgeMetrics(MetricsRegistry* registry) const {
    bridge_->RegisterMetrics(registry);
  }

 private:
  RegionMap map_;
  RegionLinkMatrix matrix_;
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::unique_ptr<RegionBridge> bridge_;
  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes_;
};

}  // namespace diffusion

#endif  // SRC_TESTBED_SHARDED_WORLD_H_
