// Node layouts, including the paper's 14-node ISI testbed (Figure 7).
//
// The published figure gives node ids and rough placement (three nodes —
// 11, 13, 16 — on the 10th floor, the rest on the 11th; "the network is
// typically 5 hops across"; radio range "varies greatly"). We reconstruct a
// layout that reproduces every structural property the experiments depend
// on: the source cluster {13, 16, 22, 25} is one hop from audio node 20 and
// four hops from sink 28; user 39 is two hops from 20; multiple alternate
// paths and hidden-terminal pairs exist.

#ifndef SRC_TESTBED_TOPOLOGY_H_
#define SRC_TESTBED_TOPOLOGY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/radio/position.h"
#include "src/radio/propagation.h"
#include "src/radio/radio.h"
#include "src/util/rng.h"

namespace diffusion {

struct TestbedLayout {
  std::vector<NodeId> node_ids;
  std::unordered_map<NodeId, Position> positions;
  double radio_range = 10.0;
};

// Node roles in the paper's experiments (Figure 7, §6.1, §6.2).
constexpr NodeId kIsiSinkNode = 28;                           // "D"
constexpr NodeId kIsiSourceNodes[] = {25, 16, 22, 13};        // "S"
constexpr NodeId kIsiUserNode = 39;                           // "U"
constexpr NodeId kIsiAudioNode = 20;                          // "A"
constexpr NodeId kIsiLightNodes[] = {16, 25, 22, 13};         // "L"

// The 14-node ISI testbed reconstruction.
TestbedLayout IsiTestbedLayout();

// A rows×cols grid with the given spacing; node ids are 1..rows*cols.
TestbedLayout GridLayout(size_t rows, size_t cols, double spacing, double radio_range);

// `count` nodes placed uniformly at random in a width×height field.
TestbedLayout RandomLayout(size_t count, double width, double height, double radio_range,
                           Rng* rng);

// Builds a DiskPropagation for a layout. Every link gets
// `delivery_probability`; floors do not block propagation (the testbed's
// 10th/11th-floor nodes were connected).
std::unique_ptr<DiskPropagation> MakePropagation(const TestbedLayout& layout,
                                                 double delivery_probability);

// BFS hop count between two nodes under disk connectivity; -1 if
// disconnected. Used by tests to pin the layout's structural properties.
int HopDistance(const TestbedLayout& layout, NodeId from, NodeId to);

// Radio parameters of the paper's testbed: Radiometrix RPC at ~13 kb/s with
// 27-byte fragments, slow MAC timing scaled to the fragment airtime.
RadioConfig TestbedRadioConfig();

// Diffusion parameters of the testbed runs: the defaults, with forwarded
// floods spread over ~5 message airtimes at 13 kb/s (300 ms) so concurrent
// re-broadcasts from hidden terminals interleave.
DiffusionConfig TestbedDiffusionConfig();

// Radio parameters of the paper's earlier ns simulations (§6.1: "1.6 Mb/s in
// simulation"), used by the larger-scale ablation.
RadioConfig SimulationRadioConfig();

}  // namespace diffusion

#endif  // SRC_TESTBED_TOPOLOGY_H_
