// Tests for the testbed layouts, the experiment harness, and the §6.1
// analytic traffic model.

#include <gtest/gtest.h>

#include "src/testbed/harness.h"
#include "src/testbed/topology.h"
#include "src/testbed/traffic_model.h"

namespace diffusion {
namespace {

TEST(IsiLayoutTest, HasFourteenNodes) {
  const TestbedLayout layout = IsiTestbedLayout();
  EXPECT_EQ(layout.node_ids.size(), 14u);
  EXPECT_EQ(layout.positions.size(), 14u);
  // Figure 7: nodes 11, 13, 16 are on the 10th floor.
  EXPECT_EQ(layout.positions.at(11).floor, 10);
  EXPECT_EQ(layout.positions.at(13).floor, 10);
  EXPECT_EQ(layout.positions.at(16).floor, 10);
  EXPECT_EQ(layout.positions.at(28).floor, 11);
}

TEST(IsiLayoutTest, ExperimentHopCounts) {
  const TestbedLayout layout = IsiTestbedLayout();
  // §6.1: sources "typically 4 hops" from the sink.
  for (NodeId source : kIsiSourceNodes) {
    EXPECT_EQ(HopDistance(layout, source, kIsiSinkNode), 4) << "source " << source;
  }
  // §6.2: "one hop from the light sensors to the audio sensor, and two hops
  // from there to the user node."
  for (NodeId light : kIsiLightNodes) {
    EXPECT_EQ(HopDistance(layout, light, kIsiAudioNode), 1) << "light " << light;
  }
  EXPECT_EQ(HopDistance(layout, kIsiAudioNode, kIsiUserNode), 2);
  EXPECT_EQ(HopDistance(layout, kIsiLightNodes[0], kIsiUserNode), 3);
}

TEST(IsiLayoutTest, FullyConnected) {
  const TestbedLayout layout = IsiTestbedLayout();
  for (NodeId a : layout.node_ids) {
    for (NodeId b : layout.node_ids) {
      EXPECT_GE(HopDistance(layout, a, b), 0) << a << " -> " << b;
    }
  }
}

TEST(IsiLayoutTest, HasHiddenTerminals) {
  // At least one pair of nodes shares a neighbor without hearing each other
  // (the congestion mechanism in §6.1).
  const TestbedLayout layout = IsiTestbedLayout();
  auto prop = MakePropagation(layout, 1.0);
  bool found = false;
  for (NodeId a : layout.node_ids) {
    for (NodeId b : layout.node_ids) {
      if (a >= b || prop->Reaches(a, b)) {
        continue;
      }
      for (NodeId m : layout.node_ids) {
        if (prop->Reaches(a, m) && prop->Reaches(b, m)) {
          found = true;
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(LayoutBuildersTest, GridShapeAndConnectivity) {
  const TestbedLayout grid = GridLayout(3, 4, 5.0, 6.0);
  EXPECT_EQ(grid.node_ids.size(), 12u);
  EXPECT_EQ(HopDistance(grid, 1, 4), 3);   // along the first row
  EXPECT_EQ(HopDistance(grid, 1, 12), 5);  // corner to corner (3+2 steps)
}

TEST(LayoutBuildersTest, RandomLayoutInBounds) {
  Rng rng(5);
  const TestbedLayout layout = RandomLayout(50, 100.0, 60.0, 12.0, &rng);
  EXPECT_EQ(layout.node_ids.size(), 50u);
  for (const auto& [id, position] : layout.positions) {
    EXPECT_GE(position.x, 0.0);
    EXPECT_LE(position.x, 100.0);
    EXPECT_GE(position.y, 0.0);
    EXPECT_LE(position.y, 60.0);
  }
}

TEST(HarnessTest, FormatWithCI) {
  RunningStat stat;
  stat.Add(10.0);
  stat.Add(12.0);
  stat.Add(14.0);
  const std::string text = FormatWithCI(stat, 1);
  EXPECT_NE(text.find("12.0"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

// ---- §6.1 traffic model ----

TEST(TrafficModelTest, PaperIdealAggregationIsFlat990) {
  // "We expect aggregation to provide a flat 990 B/event independent of the
  // number of sources."
  const TrafficModelParams params;
  for (int sources = 1; sources <= 4; ++sources) {
    const double bytes = ModelBytesPerEvent(params, sources, AggregationModel::kIdeal);
    EXPECT_NEAR(bytes, 990.0, 5.0) << sources << " sources";
  }
}

TEST(TrafficModelTest, NoAggregationRisesTo3289) {
  // "Bytes sent per event increase from 990 to 3289 B/event without
  // aggregation as the number of sources rise from 1 to 4."
  const TrafficModelParams params;
  const double one = ModelBytesPerEvent(params, 1, AggregationModel::kNone);
  const double four = ModelBytesPerEvent(params, 4, AggregationModel::kNone);
  EXPECT_NEAR(one, 990.0, 5.0);
  EXPECT_NEAR(four, 3289.0, 150.0);  // paper's own rounding is loose
  EXPECT_GT(four / one, 3.0);
}

TEST(TrafficModelTest, InterestTermMatchesHandComputation) {
  const TrafficModelParams params;
  // 14 nodes * 6s/60s = 1.4 messages per event.
  EXPECT_NEAR(ModelInterestMessagesPerEvent(params), 1.4, 1e-9);
}

TEST(TrafficModelTest, FirstHopAggregationBetweenIdealAndNone) {
  const TrafficModelParams params;
  for (int sources = 2; sources <= 4; ++sources) {
    const double ideal = ModelBytesPerEvent(params, sources, AggregationModel::kIdeal);
    const double first_hop = ModelBytesPerEvent(params, sources, AggregationModel::kFirstHop);
    const double none = ModelBytesPerEvent(params, sources, AggregationModel::kNone);
    EXPECT_LT(ideal, first_hop);
    EXPECT_LT(first_hop, none);
  }
}

TEST(TrafficModelTest, MonotoneInSources) {
  const TrafficModelParams params;
  double last = 0;
  for (int sources = 1; sources <= 8; ++sources) {
    const double bytes = ModelBytesPerEvent(params, sources, AggregationModel::kNone);
    EXPECT_GT(bytes, last);
    last = bytes;
  }
}

}  // namespace
}  // namespace diffusion
