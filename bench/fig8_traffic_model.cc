// §6.1's analytic traffic model — the paper's own cross-check on Figure 8.
//
// "Summing the message cost and normalizing per event we expect aggregation
// to provide a flat 990 B/event independent of the number of sources, and we
// expect bytes sent per event to increase from 990 to 3289 B/event without
// aggregation as the number of sources rise from 1 to 4."
//
// This binary prints the model's per-term breakdown and totals for 1-4
// sources under the three aggregation idealizations, so Figure 8's measured
// points can be compared against the same bracket the authors used.

#include <cstdio>
#include <initializer_list>

#include "bench/harness.h"
#include "src/testbed/traffic_model.h"

namespace diffusion {
namespace {

const char* ModelName(AggregationModel model) {
  switch (model) {
    case AggregationModel::kNone:
      return "none";
    case AggregationModel::kIdeal:
      return "ideal";
    case AggregationModel::kFirstHop:
      return "first-hop";
  }
  return "?";
}

int Main(int argc, char** argv) {
  bench::ParseFlags(argc, argv, {});
  const TrafficModelParams params;
  std::printf("=== §6.1 analytic traffic model (127 B messages, 14-node floods, 5-hop path,\n");
  std::printf("    interests/60 s, events/6 s, 1-in-10 exploratory) ===\n\n");

  std::printf("Messages per event, by term (4 sources):\n");
  for (AggregationModel model :
       {AggregationModel::kNone, AggregationModel::kFirstHop, AggregationModel::kIdeal}) {
    std::printf("  %-10s interest=%.2f data=%.2f exploratory=%.2f reinforcement=%.2f\n",
                ModelName(model), ModelInterestMessagesPerEvent(params),
                ModelDataMessagesPerEvent(params, 4, model),
                ModelExploratoryMessagesPerEvent(params, 4, model),
                ModelReinforcementMessagesPerEvent(params, 4, model));
  }

  std::printf("\nBytes per event:\n");
  std::printf("%-8s  %-12s  %-12s  %-12s\n", "sources", "none", "first-hop", "ideal");
  for (int sources = 1; sources <= 4; ++sources) {
    std::printf("%-8d  %-12.0f  %-12.0f  %-12.0f\n", sources,
                ModelBytesPerEvent(params, sources, AggregationModel::kNone),
                ModelBytesPerEvent(params, sources, AggregationModel::kFirstHop),
                ModelBytesPerEvent(params, sources, AggregationModel::kIdeal));
  }

  std::printf("\nPaper checkpoints: ideal aggregation flat at ~990 B/event; without\n");
  std::printf("aggregation 990 -> 3289 B/event from 1 to 4 sources.\n");
  std::printf("This model: 1 source none = %.0f; 4 sources none = %.0f; ideal(4) = %.0f.\n",
              ModelBytesPerEvent(params, 1, AggregationModel::kNone),
              ModelBytesPerEvent(params, 4, AggregationModel::kNone),
              ModelBytesPerEvent(params, 4, AggregationModel::kIdeal));
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
