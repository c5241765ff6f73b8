// The one builder of experiment worlds.
//
// Every experiment in §6 runs on one network assembled the same way: seeded
// simulators, a Channel per simulator over a propagation model, and a
// DiffusionNode per layout id, cut into the spatial regions of
// src/radio/region_map.h. Construction order is a contract:
//
//   1. one Simulator per region (ShardedEngine; region 0 keeps the seed);
//   2. the trace sink, before anything that traces exists;
//   3. one Channel per region, each forking its region's RNG;
//   4. the nodes, region by region, in layout.node_ids order within one.
//
// The fork sequence fixes every random draw, so two runners that build
// through TestbedWorld with the same arguments produce the same output byte
// for byte. One region (the default; every paper runner) runs straight
// through its one simulator: no window loop, trace buffering or worker.
//
// More regions need a DiskPropagation, whose geometry the link matrix reads;
// each region's channel gets a copy (local endpoints only), and a
// RegionBridge couples them at the barrier closing each window of
// max(shortest frame airtime, 1 ms). The run is deterministic at any thread
// count, but at region borders a frame cannot collide with transmissions
// its destination region starts after it was posted, and its delivery may
// wait for the next barrier. Within a region the radio is exact.
//
// Applications and filters (other than the ones SuppressDuplicates adds)
// are the caller's; build them after the world and let them die before it.

#ifndef SRC_TESTBED_TESTBED_WORLD_H_
#define SRC_TESTBED_TESTBED_WORLD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/radio/channel.h"
#include "src/radio/region_bridge.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/testbed/topology.h"
#include "src/trace/trace.h"

namespace diffusion {

// How a TestbedWorld is cut into regions.
struct WorldSharding {
  int regions = 1;       // a target: RegionMap may cut slightly fewer
  unsigned threads = 1;  // 0 = hardware concurrency; output is the same for all
};

// The heap bytes a world's long-lived structures hold, by layer, from each
// structure's MemoryBytes() (src/util/memory_bytes.h). A pure function of
// the world's state for a given standard library, so a deterministic run
// reports the same ledger at any thread count.
struct MemoryLedger {
  // The DiffusionNode objects (radio and MAC inside) and the world's id map.
  size_t nodes = 0;
  // What the nodes hold, summed over NodeMemory's structures.
  size_t gradients = 0;
  size_t data_cache = 0;
  size_t match_indexes = 0;
  size_t node_other = 0;
  size_t radio = 0;
  // Every region's Channel: the object, its slots, receiver lists, in-air
  // state and slabs.
  size_t channel = 0;
  // Every region's DiskPropagation: the object, positions, overrides, grid.
  size_t propagation = 0;

  size_t total() const {
    return nodes + gradients + data_cache + match_indexes + node_other + radio + channel +
           propagation;
  }
};

// The ledger's rows by name ("nodes", "gradients", ..., "total"), in the
// order gauges and bench files list them.
std::vector<std::pair<std::string, size_t>> MemoryRows(const MemoryLedger& ledger);

class TestbedWorld {
 public:
  // Options for one node, asked once per id in construction order. A
  // multi-region world also asks for the first layout id's options up
  // front: its lookahead comes from that node's MAC, so every node must
  // share one bitrate and frame overhead.
  using OptionsFor = std::function<NodeOptions(NodeId id)>;

  // `trace_sink` is borrowed and must outlive the world; null = untraced.
  TestbedWorld(uint64_t seed, const TestbedLayout& layout,
               std::unique_ptr<PropagationModel> propagation, const OptionsFor& options_for,
               TraceSink* trace_sink = nullptr, const WorldSharding& sharding = {});
  // Every node built from the same options.
  TestbedWorld(uint64_t seed, const TestbedLayout& layout,
               std::unique_ptr<PropagationModel> propagation, const NodeOptions& options,
               TraceSink* trace_sink = nullptr, const WorldSharding& sharding = {});

  TestbedWorld(const TestbedWorld&) = delete;
  TestbedWorld& operator=(const TestbedWorld&) = delete;

  int regions() const { return map_.regions(); }
  const RegionMap& region_map() const { return map_; }
  // With one region the engine's window loop and counters stay idle.
  ShardedEngine& engine() { return *engine_; }
  // The border coupling. Aborts in a one-region world, which has none.
  const RegionBridge& bridge() const;

  // The one simulator and channel of a one-region world; abort with more.
  Simulator& sim() { return engine_->region_sim(OnlyRegion()); }
  Channel& channel() { return *channels_[static_cast<size_t>(OnlyRegion())]; }
  // The simulator and channel of the region owning `id`. Schedule application
  // events (source starts, fault plans) through these, never another region's.
  Simulator& sim_of(NodeId id) { return engine_->region_sim(map_.RegionOf(id)); }
  Channel& channel_of(NodeId id) { return *channels_[static_cast<size_t>(map_.RegionOf(id))]; }

  DiffusionNode* node(NodeId id) { return nodes_.at(id).get(); }
  const std::map<NodeId, std::unique_ptr<DiffusionNode>>& nodes() const { return nodes_; }

  // Attaches (or with null detaches) the trace sink after construction;
  // see ShardedEngine::set_merged_trace_sink.
  void set_merged_trace_sink(TraceSink* sink);
  // Runs every region to `end` inclusive and returns the events executed.
  uint64_t RunUntil(SimTime end);

  // Channel-wide counters summed over every region's channel.
  ChannelStats TotalChannelStats() const;

  // The byte ledger, computed now. It costs one walk over the nodes and
  // channels and nothing per event.
  MemoryLedger Memory() const;
  // Registers each ledger row and the total as a global gauge
  // ("memory.<row>_bytes", "memory.total_bytes"). The world must outlive
  // collections from `registry`.
  void RegisterMemoryGauges(MetricsRegistry* registry) const;

  // Puts a DuplicateSuppressionFilter matching `sconfig`'s data on every
  // node ("all nodes were configured with aggregation filters", §6.1). The
  // world owns the filters.
  void SuppressDuplicates(const SurveillanceConfig& sconfig);
  // Events those filters have absorbed so far.
  uint64_t TotalSuppressed() const;

  // Diffusion-level bytes transmitted by all nodes so far ("bytes sent from
  // all diffusion modules", Figure 8).
  uint64_t TotalDiffusionBytes() const;

  // Network-wide relative radio energy over a run of `elapsed`: measured
  // listen/receive/send times at power ratios 1:2:2 (the §6.1 model, fed
  // with observations instead of assumptions), in second-equivalents.
  double MeasuredEnergy(double elapsed) const;

  // The receive + send part of MeasuredEnergy alone, without idle
  // listening: what the prior ns simulations' Figure 6b measured.
  double CommunicationEnergy() const;

 private:
  // 0, or aborts when the world has more than one region.
  int OnlyRegion() const;

  RegionMap map_;
  std::unique_ptr<RegionLinkMatrix> matrix_;  // null with one region
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::unique_ptr<RegionBridge> bridge_;  // null with one region
  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes_;
  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> suppression_;
};

// Surveillance sources start here in every testbed runner, once the sink's
// interest is out.
inline constexpr SimTime kSourceStart = 5 * kSecond;

// `part / whole`, or 0 when there is no whole.
inline double Ratio(double part, uint64_t whole) {
  return whole > 0 ? part / static_cast<double>(whole) : 0.0;
}

// Synchronized sources started at kSourceStart generate event k at
// kSourceStart + k * interval. PossibleEvents counts the k generated inside
// [lo, hi); DeliveredInWindow also counts how many of them reached a sink
// (k is a key of `first_delivery`).
size_t PossibleEvents(SimDuration interval, SimTime lo, SimTime hi);
struct WindowDelivery {
  uint64_t possible = 0;
  uint64_t delivered = 0;

  double rate() const { return Ratio(static_cast<double>(delivered), possible); }
};
WindowDelivery DeliveredInWindow(const std::map<int64_t, SimTime>& first_delivery,
                                 SimDuration interval, SimTime lo, SimTime hi);

}  // namespace diffusion

#endif  // SRC_TESTBED_TESTBED_WORLD_H_
