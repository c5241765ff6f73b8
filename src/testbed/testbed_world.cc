#include "src/testbed/testbed_world.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/radio/energy.h"
#include "src/util/memory_bytes.h"

namespace diffusion {
namespace {

// Misuse is a caller bug: fail loudly rather than touch the wrong region.
void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "TestbedWorld: %s\n", what);
    std::abort();
  }
}

}  // namespace

TestbedWorld::TestbedWorld(uint64_t seed, const TestbedLayout& layout,
                           std::unique_ptr<PropagationModel> propagation,
                           const OptionsFor& options_for, TraceSink* trace_sink,
                           const WorldSharding& sharding)
    : map_(layout.node_ids, layout.positions, sharding.regions) {
  ShardedEngineConfig config{.regions = map_.regions(), .threads = sharding.threads, .seed = seed};
  const auto* disk = dynamic_cast<const DiskPropagation*>(propagation.get());
  if (map_.regions() > 1) {
    Require(disk != nullptr, "more than one region needs a DiskPropagation");
    matrix_ = std::make_unique<RegionLinkMatrix>(map_, *disk,
                                                 options_for(layout.node_ids.front()).radio.mac);
    config.window = std::max(matrix_->min_frame_airtime(), 1 * kMillisecond);
  }
  engine_ = std::make_unique<ShardedEngine>(config);
  set_merged_trace_sink(trace_sink);

  std::vector<Channel*> channel_ptrs;
  for (int region = 0; region < map_.regions(); ++region) {
    // Region 0 keeps the caller's model; the others get copies of it.
    std::unique_ptr<PropagationModel> model =
        region == 0 ? std::move(propagation) : std::make_unique<DiskPropagation>(*disk);
    channels_.push_back(std::make_unique<Channel>(&engine_->region_sim(region), std::move(model)));
    channel_ptrs.push_back(channels_.back().get());
  }
  if (matrix_ != nullptr) {
    bridge_ = std::make_unique<RegionBridge>(matrix_.get(), std::move(channel_ptrs));
    engine_->set_coupler(bridge_.get());
  }

  for (int region = 0; region < map_.regions(); ++region) {
    Simulator* sim = &engine_->region_sim(region);
    Channel* channel = channels_[static_cast<size_t>(region)].get();
    for (NodeId id : layout.node_ids) {
      if (map_.RegionOf(id) == region) {
        nodes_[id] = std::make_unique<DiffusionNode>(sim, channel, id, options_for(id));
      }
    }
  }
}

TestbedWorld::TestbedWorld(uint64_t seed, const TestbedLayout& layout,
                           std::unique_ptr<PropagationModel> propagation,
                           const NodeOptions& options, TraceSink* trace_sink,
                           const WorldSharding& sharding)
    : TestbedWorld(seed, layout, std::move(propagation),
                   [&options](NodeId) { return options; }, trace_sink, sharding) {}

const RegionBridge& TestbedWorld::bridge() const {
  Require(bridge_ != nullptr, "bridge() needs more than one region");
  return *bridge_;
}

int TestbedWorld::OnlyRegion() const {
  Require(regions() == 1, "sim() and channel() need one region; use sim_of(id), channel_of(id)");
  return 0;
}

void TestbedWorld::set_merged_trace_sink(TraceSink* sink) {
  if (regions() == 1) {
    sim().set_trace_sink(sink);
  } else {
    engine_->set_merged_trace_sink(sink);
  }
}

uint64_t TestbedWorld::RunUntil(SimTime end) {
  return regions() == 1 ? sim().RunUntil(end) : engine_->RunUntil(end);
}

ChannelStats TestbedWorld::TotalChannelStats() const {
  ChannelStats total;
  for (const auto& channel : channels_) {
    const ChannelStats& stats = channel->stats();
    total.transmissions += stats.transmissions;
    total.receptions_attempted += stats.receptions_attempted;
    total.collisions += stats.collisions;
    total.propagation_losses += stats.propagation_losses;
    total.deliveries += stats.deliveries;
  }
  return total;
}

MemoryLedger TestbedWorld::Memory() const {
  MemoryLedger ledger;
  ledger.nodes = MapBytes(nodes_) + nodes_.size() * sizeof(DiffusionNode);
  for (const auto& [id, node] : nodes_) {
    const NodeMemory memory = node->MemoryBytes();
    ledger.gradients += memory.gradients;
    ledger.data_cache += memory.data_cache;
    ledger.match_indexes += memory.match_indexes;
    ledger.node_other += memory.other;
    ledger.radio += memory.radio;
  }
  for (const auto& channel : channels_) {
    ledger.channel += sizeof(Channel) + channel->MemoryBytes();
    if (const auto* disk = dynamic_cast<const DiskPropagation*>(&channel->propagation())) {
      ledger.propagation += sizeof(DiskPropagation) + disk->MemoryBytes();
    }
  }
  return ledger;
}

void TestbedWorld::RegisterMemoryGauges(MetricsRegistry* registry) const {
  const std::vector<std::pair<std::string, size_t>> rows = MemoryRows(MemoryLedger{});
  for (size_t i = 0; i < rows.size(); ++i) {
    registry->RegisterGlobalGauge("memory." + rows[i].first + "_bytes", [this, i] {
      return static_cast<double>(MemoryRows(Memory())[i].second);
    });
  }
}

std::vector<std::pair<std::string, size_t>> MemoryRows(const MemoryLedger& ledger) {
  return {
      {"nodes", ledger.nodes},
      {"gradients", ledger.gradients},
      {"data_cache", ledger.data_cache},
      {"match_indexes", ledger.match_indexes},
      {"node_other", ledger.node_other},
      {"radio", ledger.radio},
      {"channel", ledger.channel},
      {"propagation", ledger.propagation},
      {"total", ledger.total()},
  };
}

void TestbedWorld::SuppressDuplicates(const SurveillanceConfig& sconfig) {
  for (auto& [id, node] : nodes_) {
    suppression_.push_back(std::make_unique<DuplicateSuppressionFilter>(
        node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
  }
}

uint64_t TestbedWorld::TotalSuppressed() const {
  uint64_t total = 0;
  for (const auto& filter : suppression_) {
    total += filter->suppressed();
  }
  return total;
}

uint64_t TestbedWorld::TotalDiffusionBytes() const {
  uint64_t total = 0;
  for (const auto& [id, node] : nodes_) {
    total += node->stats().bytes_sent;
  }
  return total;
}

double TestbedWorld::MeasuredEnergy(double elapsed) const {
  const EnergyRatios ratios;
  double energy = 0.0;
  for (const auto& [id, node] : nodes_) {
    const Radio& radio = node->radio();
    const double tx = static_cast<double>(radio.time_sending());
    const double rx = static_cast<double>(radio.stats().time_receiving);
    const double listen = std::max(0.0, radio.awake_fraction() * elapsed - tx - rx);
    energy += ratios.listen * listen + ratios.receive * rx + ratios.send * tx;
  }
  return energy / static_cast<double>(kSecond);
}

double TestbedWorld::CommunicationEnergy() const {
  const EnergyRatios ratios;
  double energy = 0.0;
  for (const auto& [id, node] : nodes_) {
    const Radio& radio = node->radio();
    energy += ratios.send * static_cast<double>(radio.time_sending()) +
              ratios.receive * static_cast<double>(radio.stats().time_receiving);
  }
  return energy / static_cast<double>(kSecond);
}

size_t PossibleEvents(SimDuration interval, SimTime lo, SimTime hi) {
  const int64_t first = (lo - kSourceStart + interval - 1) / interval;
  const int64_t last = (hi - kSourceStart + interval - 1) / interval;
  return static_cast<size_t>(last > first ? last - first : 0);
}

WindowDelivery DeliveredInWindow(const std::map<int64_t, SimTime>& first_delivery,
                                 SimDuration interval, SimTime lo, SimTime hi) {
  WindowDelivery window;
  for (int64_t k = 0;; ++k) {
    const SimTime generated = kSourceStart + k * interval;
    if (generated >= hi) {
      break;
    }
    if (generated < lo) {
      continue;
    }
    ++window.possible;
    if (first_delivery.contains(k)) {
      ++window.delivered;
    }
  }
  return window;
}

}  // namespace diffusion
