#include "src/testbed/testbed_world.h"

#include <algorithm>
#include <utility>

#include "src/radio/energy.h"

namespace diffusion {
namespace {

// Sets the sink on the simulator before the channel, the first thing built
// over it, exists.
Simulator* WithTraceSink(Simulator* sim, TraceSink* trace_sink) {
  sim->set_trace_sink(trace_sink);
  return sim;
}

}  // namespace

TestbedWorld::TestbedWorld(uint64_t seed, const TestbedLayout& layout,
                           std::unique_ptr<PropagationModel> propagation,
                           const OptionsFor& options_for, TraceSink* trace_sink)
    : sim_(seed), channel_(WithTraceSink(&sim_, trace_sink), std::move(propagation)) {
  for (NodeId id : layout.node_ids) {
    nodes_[id] = std::make_unique<DiffusionNode>(&sim_, &channel_, id, options_for(id));
  }
}

TestbedWorld::TestbedWorld(uint64_t seed, const TestbedLayout& layout,
                           std::unique_ptr<PropagationModel> propagation,
                           const NodeOptions& options, TraceSink* trace_sink)
    : TestbedWorld(seed, layout, std::move(propagation),
                   [&options](NodeId) { return options; }, trace_sink) {}

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
