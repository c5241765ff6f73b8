// World composition for the two simulation workloads, built from the
// library's public constructors in the order RunFig8 (testbed14) and
// ShardedWorld + parallel_scaling (field10k) use, so that a world here
// reproduces theirs exactly (perfbench/tests/worlds_test.cc checks it).
// Building them here, instead of calling those entry points, is what lets
// the benchmark time each setup phase on its own and step the run in slices
// from outside the program.

#ifndef PERFBENCH_CC_WORLDS_H_
#define PERFBENCH_CC_WORLDS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cc/counting_propagation.h"
#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/radio/channel.h"
#include "src/radio/region_bridge.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/testbed/experiments.h"
#include "src/testbed/topology.h"

namespace perfbench {

// Host seconds per setup phase of one world.
struct SetupTimes {
  double propagation_s = 0.0;  // layout and propagation models
  double engine_s = 0.0;       // simulators, channels, region map and bridge
  double nodes_s = 0.0;        // diffusion nodes
  double apps_s = 0.0;         // filters, sinks, sources
};

// Deterministic per-layer counts of one run, read from the components'
// public stats after it. Equal for equal (seed, config), traced or not.
struct SimCounts {
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t transmissions = 0;
  uint64_t receptions_attempted = 0;
  uint64_t collisions = 0;
  uint64_t deliveries = 0;
  uint64_t mac_frames_sent = 0;
  uint64_t mac_drops = 0;
  uint64_t fragments_sent = 0;
  uint64_t fragments_received = 0;
  uint64_t fragments_dropped = 0;
  uint64_t messages_received = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_forwarded = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t reinforcements = 0;  // positive plus negative
  uint64_t filter_passed = 0;
  uint64_t filter_suppressed = 0;
  uint64_t border_frames = 0;
  uint64_t deliveries_clamped = 0;
  bool operator==(const SimCounts&) const = default;
};

// The Figure-8 quantities over the measured window.
struct SimOutcome {
  uint64_t delivered = 0;  // distinct events delivered to sinks
  uint64_t possible = 0;   // events the sources generated
  uint64_t bytes = 0;      // diffusion bytes sent
  double delivery_ratio() const {
    return possible > 0 ? static_cast<double>(delivered) / static_cast<double>(possible) : 0.0;
  }
  double bytes_per_event() const {
    return delivered > 0 ? static_cast<double>(bytes) / static_cast<double>(delivered) : 0.0;
  }
  bool operator==(const SimOutcome&) const = default;
};

// Reaches calls and estimated busy time across a world's decorators.
struct ReachSample {
  uint64_t reaches = 0;
  int64_t busy_ns = 0;
};

struct SurveillanceApps {
  std::vector<std::unique_ptr<diffusion::DuplicateSuppressionFilter>> filters;
  std::vector<std::unique_ptr<diffusion::SurveillanceSink>> sinks;
  std::vector<std::unique_ptr<diffusion::SurveillanceSource>> sources;
};

// ---- testbed14: Figure 8 on the Figure-7 testbed ---------------------------

struct Testbed14Params {
  uint64_t seed = 1;
  diffusion::SimDuration warmup = 60 * diffusion::kSecond;
  diffusion::SimDuration duration = 30 * diffusion::kMinute;
  // Wraps the propagation model in a CountingPropagation.
  bool count_reaches = false;
  diffusion::TraceSink* trace_sink = nullptr;  // borrowed
};

// RunFig8's default configuration: 4 sources, duplicate suppression on
// every node, 13 kb/s MAC, 27-byte fragments, one monolithic Simulator.
class Testbed14World {
 public:
  explicit Testbed14World(const Testbed14Params& params);

  Testbed14World(const Testbed14World&) = delete;
  Testbed14World& operator=(const Testbed14World&) = delete;

  const SetupTimes& setup() const { return setup_; }
  diffusion::SimTime horizon() const { return params_.warmup + params_.duration; }
  // Threads that run a step.
  uint32_t workers() const { return 1; }

  // Inclusive step ends: every `slice` up to the warmup, which is always a
  // step end (the measured window starts there), then every `slice` to the
  // horizon.
  std::vector<diffusion::SimTime> StepEnds(diffusion::SimDuration slice) const;
  // Runs every event up to `end` inclusive; returns the events run.
  uint64_t Step(diffusion::SimTime end);

  SimOutcome Outcome() const;
  SimCounts Counts() const;
  diffusion::Fig8Result Fig8() const;

  size_t PendingEvents() const { return sim_->scheduler().pending(); }
  size_t GradientEntries() const;
  uint64_t MessagesReceived() const;
  ReachSample Reach() const;

 private:
  Testbed14Params params_;
  SetupTimes setup_;
  uint64_t events_ = 0;
  uint64_t bytes_at_warmup_ = 0;
  size_t delivered_at_warmup_ = 0;
  CountingPropagation* counter_ = nullptr;  // owned by channel_
  // Declaration order is RunFig8's construction order; destruction runs in
  // reverse, as its locals do.
  std::unique_ptr<diffusion::Simulator> sim_;
  std::unique_ptr<diffusion::Channel> channel_;
  std::map<diffusion::NodeId, std::unique_ptr<diffusion::DiffusionNode>> nodes_;
  SurveillanceApps apps_;
};

// ---- field10k: parallel_scaling's 10,000-node sharded field ----------------

struct Field10kParams {
  uint64_t seed = 1;
  int side = 100;  // side x side grid
  int regions = 16;
  unsigned threads = 2;
  diffusion::SimDuration horizon = 60 * diffusion::kSecond;
  bool count_reaches = false;
  diffusion::TraceSink* trace_sink = nullptr;  // borrowed
};

inline constexpr double kFieldSpacing = 10.0;
inline constexpr double kFieldRange = 12.0;

inline diffusion::NodeId FieldGridId(int side, int row, int col) {
  return static_cast<diffusion::NodeId>(row * side + col) + 1;
}

// parallel_scaling's applications: one sink per cell of a 4x4 placement
// grid and four sources three hops out from it, all started at t = 1 s in
// their own region's simulator. `World` provides node(id) and sim_of(id).
template <typename World>
void AttachFieldApps(World& world, int side, SurveillanceApps* apps) {
  const int cells = 4;
  const int step = side / cells;
  const int offset = step / 2;
  diffusion::SurveillanceConfig config;
  int32_t next_source_id = 1;
  for (int i = 0; i < cells; ++i) {
    for (int j = 0; j < cells; ++j) {
      const int row = offset + i * step;
      const int col = offset + j * step;
      apps->sinks.push_back(std::make_unique<diffusion::SurveillanceSink>(
          world.node(FieldGridId(side, row, col)), config));
      apps->sinks.back()->Start();
      const int spread = 3;
      const diffusion::NodeId source_ids[] = {
          FieldGridId(side, row - spread, col), FieldGridId(side, row + spread, col),
          FieldGridId(side, row, col - spread), FieldGridId(side, row, col + spread)};
      for (diffusion::NodeId id : source_ids) {
        apps->sources.push_back(std::make_unique<diffusion::SurveillanceSource>(
            world.node(id), config, next_source_id++));
        diffusion::SurveillanceSource* source = apps->sources.back().get();
        world.sim_of(id).At(1 * diffusion::kSecond, [source] { source->Start(); });
      }
    }
  }
}

// Delivered distinct events over (sinks x events each source generated):
// sources start together and number their events in step, so every sink
// can receive each event number once.
SimOutcome FieldOutcome(const SurveillanceApps& apps, uint64_t bytes_sent);

class Field10kWorld {
 public:
  explicit Field10kWorld(const Field10kParams& params);

  Field10kWorld(const Field10kWorld&) = delete;
  Field10kWorld& operator=(const Field10kWorld&) = delete;

  const SetupTimes& setup() const { return setup_; }
  diffusion::SimTime horizon() const { return params_.horizon; }
  // Threads that run a step.
  uint32_t workers() const { return engine_->threads(); }

  // Step ends that keep ShardedWorld::RunUntil(horizon)'s window grid: a
  // step ending at k*granularity - 1 leaves the next window starting at
  // k*granularity, and the last step ends at the horizon itself.
  // `granularity` must be a multiple of the engine's window (1 ms for this
  // radio).
  std::vector<diffusion::SimTime> StepEnds(diffusion::SimDuration granularity) const;
  uint64_t Step(diffusion::SimTime end) { return engine_->RunUntil(end); }

  SimOutcome Outcome() const;
  SimCounts Counts() const;

  size_t PendingEvents() const;
  size_t GradientEntries() const;
  uint64_t MessagesReceived() const;
  ReachSample Reach() const;

  diffusion::DiffusionNode* node(diffusion::NodeId id) { return nodes_.at(id).get(); }
  diffusion::Simulator& sim_of(diffusion::NodeId id) {
    return engine_->region_sim(map_->RegionOf(id));
  }

 private:
  Field10kParams params_;
  SetupTimes setup_;
  std::vector<CountingPropagation*> counters_;  // owned by channels_
  // ShardedWorld's members, in its declaration order.
  std::unique_ptr<diffusion::RegionMap> map_;
  std::unique_ptr<diffusion::RegionLinkMatrix> matrix_;
  std::unique_ptr<diffusion::ShardedEngine> engine_;
  std::vector<std::unique_ptr<diffusion::Channel>> channels_;
  std::unique_ptr<diffusion::RegionBridge> bridge_;
  std::map<diffusion::NodeId, std::unique_ptr<diffusion::DiffusionNode>> nodes_;
  SurveillanceApps apps_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORLDS_H_
