// The one builder of single-simulator experiment worlds.
//
// Every experiment in §6 runs on one network assembled the same way: a
// seeded Simulator, one Channel over a propagation model, and a
// DiffusionNode per layout id. TestbedWorld owns exactly that. Its members
// are declared in construction order, and that order is a contract:
//
//   1. the Simulator, with the trace sink set before anything else exists;
//   2. the Channel, which forks the simulator's RNG;
//   3. the nodes, in layout.node_ids order, each forking the RNG in turn.
//
// The fork sequence fixes every random draw of the run, so two runners that
// build through TestbedWorld with the same arguments produce the same
// output byte for byte. Applications and filters (other than the ones
// SuppressDuplicates adds) are the caller's; build them after the world and
// let them die before it.
//
// ShardedWorld (sharded_world.h) is the multi-region counterpart.

#ifndef SRC_TESTBED_TESTBED_WORLD_H_
#define SRC_TESTBED_TESTBED_WORLD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/radio/channel.h"
#include "src/sim/simulator.h"
#include "src/testbed/topology.h"
#include "src/trace/trace.h"

namespace diffusion {

class TestbedWorld {
 public:
  // Options for one node, asked once per id in layout order.
  using OptionsFor = std::function<NodeOptions(NodeId id)>;

  // `trace_sink` is borrowed and must outlive the world; null = untraced.
  TestbedWorld(uint64_t seed, const TestbedLayout& layout,
               std::unique_ptr<PropagationModel> propagation, const OptionsFor& options_for,
               TraceSink* trace_sink = nullptr);
  // Every node built from the same options.
  TestbedWorld(uint64_t seed, const TestbedLayout& layout,
               std::unique_ptr<PropagationModel> propagation, const NodeOptions& options,
               TraceSink* trace_sink = nullptr);

  TestbedWorld(const TestbedWorld&) = delete;
  TestbedWorld& operator=(const TestbedWorld&) = delete;

  Simulator& sim() { return sim_; }
  Channel& channel() { return channel_; }
  DiffusionNode* node(NodeId id) { return nodes_.at(id).get(); }
  const std::map<NodeId, std::unique_ptr<DiffusionNode>>& nodes() const { return nodes_; }

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
  Simulator sim_;
  Channel channel_;
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
