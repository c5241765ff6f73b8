#include "src/testbed/topology.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace diffusion {

TestbedLayout IsiTestbedLayout() {
  TestbedLayout layout;
  layout.radio_range = 10.0;
  // 10th floor: 11, 13, 16 (light nodes in Figure 7); 11th floor: the rest.
  const std::pair<NodeId, Position> nodes[] = {
      {13, {2.0, 0.0, 10}},  {16, {2.0, 4.0, 10}},  {11, {3.5, 2.0, 10}},
      {22, {5.0, 0.0, 11}},  {25, {5.0, 4.0, 11}},  {20, {11.0, 2.0, 11}},
      {17, {19.0, 2.0, 11}}, {37, {17.0, 9.0, 11}}, {18, {23.0, 7.0, 11}},
      {21, {27.0, 2.0, 11}}, {24, {31.0, 7.0, 11}}, {28, {35.0, 2.0, 11}},
      {33, {30.0, -3.0, 11}}, {39, {25.0, -4.0, 11}},
  };
  for (const auto& [id, position] : nodes) {
    layout.node_ids.push_back(id);
    layout.positions[id] = position;
  }
  return layout;
}

TestbedLayout GridLayout(size_t rows, size_t cols, double spacing, double radio_range) {
  TestbedLayout layout;
  layout.radio_range = radio_range;
  NodeId id = 1;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      layout.node_ids.push_back(id);
      layout.positions[id] = Position{static_cast<double>(c) * spacing,
                                      static_cast<double>(r) * spacing, 0};
      ++id;
    }
  }
  return layout;
}

TestbedLayout RandomLayout(size_t count, double width, double height, double radio_range,
                           Rng* rng) {
  TestbedLayout layout;
  layout.radio_range = radio_range;
  for (NodeId id = 1; id <= count; ++id) {
    layout.node_ids.push_back(id);
    layout.positions[id] =
        Position{rng->NextDoubleIn(0.0, width), rng->NextDoubleIn(0.0, height), 0};
  }
  return layout;
}

std::unique_ptr<DiskPropagation> MakePropagation(const TestbedLayout& layout,
                                                 double delivery_probability) {
  auto propagation = std::make_unique<DiskPropagation>(layout.radio_range, delivery_probability);
  propagation->set_inter_floor_range(layout.radio_range);
  if (!layout.positions.empty()) {
    // Place the lowest and the highest id first, so the dense position table
    // is sized once to the span and never regrows; the loop sets both again.
    const auto [low, high] = std::minmax_element(
        layout.positions.begin(), layout.positions.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    propagation->SetPosition(low->first, low->second);
    propagation->SetPosition(high->first, high->second);
  }
  for (const auto& [id, position] : layout.positions) {
    propagation->SetPosition(id, position);
  }
  return propagation;
}

DiffusionConfig TestbedDiffusionConfig() {
  DiffusionConfig config;
  config.forward_delay_jitter = 300 * kMillisecond;
  return config;
}

RadioConfig TestbedRadioConfig() {
  RadioConfig config;
  // The RPC radio "provides about 13 kb/s throughput" of message payload; on
  // the air each 27-byte fragment also carries link header and framing, so
  // the raw rate is higher (the RPC's raw rate is ~40 kb/s). 30 kb/s raw
  // yields ~13 kb/s of payload goodput after our per-fragment overhead.
  config.mac.bitrate_bps = 30000.0;
  config.mac.frame_overhead_bytes = 8;
  // One fragment occupies ~14 ms of air.
  config.mac.slot = 3 * kMillisecond;
  config.mac.cw_min_slots = 4;
  config.mac.cw_max_slots = 64;
  config.mac.max_attempts = 16;
  config.mac.queue_limit = 64;
  config.mac.interframe_spacing = 3 * kMillisecond;
  config.mac.initial_jitter = 10 * kMillisecond;
  config.fragment_payload = 27;
  config.reassembly_timeout = 10 * kSecond;
  return config;
}

RadioConfig SimulationRadioConfig() {
  RadioConfig config;
  config.mac.bitrate_bps = 1'600'000.0;
  config.mac.frame_overhead_bytes = 8;
  config.mac.slot = 500;  // µs
  config.mac.cw_min_slots = 4;
  config.mac.cw_max_slots = 64;
  config.mac.max_attempts = 16;
  config.mac.queue_limit = 64;
  config.mac.interframe_spacing = 500;
  config.mac.initial_jitter = 2 * kMillisecond;
  config.fragment_payload = 64;  // the simulations modelled 64 B packets
  config.reassembly_timeout = 10 * kSecond;
  return config;
}

int HopDistance(const TestbedLayout& layout, NodeId from, NodeId to) {
  if (from == to) {
    return 0;
  }
  std::unordered_map<NodeId, int> distance;
  std::deque<NodeId> frontier;
  distance[from] = 0;
  frontier.push_back(from);
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop_front();
    const Position& current_position = layout.positions.at(current);
    for (NodeId candidate : layout.node_ids) {
      if (distance.contains(candidate)) {
        continue;
      }
      if (Distance(current_position, layout.positions.at(candidate)) <= layout.radio_range) {
        distance[candidate] = distance[current] + 1;
        if (candidate == to) {
          return distance[candidate];
        }
        frontier.push_back(candidate);
      }
    }
  }
  return -1;
}

}  // namespace diffusion
