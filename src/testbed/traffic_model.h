// The §6.1 analytic traffic model.
//
// "We can confirm these results with a simple traffic model. We approximate
// all messages as 127 B long and add together interest messages (sent every
// 60 s and flooded from each node), reinforcement messages (sent on the
// reinforced path between the sink and each source), simple data messages
// (9 out of every 10 data messages, sent only on the reinforced path ...)
// and exploratory data messages (1 out of every 10 ... flooded in turn from
// each node, again possibly aggregated). ... we expect aggregation to
// provide a flat 990 B/event independent of the number of sources, and we
// expect bytes sent per event to increase from 990 to 3289 B/event without
// aggregation as the number of sources rise from 1 to 4."

#ifndef SRC_TESTBED_TRAFFIC_MODEL_H_
#define SRC_TESTBED_TRAFFIC_MODEL_H_

#include <cstddef>

#include "src/util/time.h"

namespace diffusion {

// The testbed the model describes (Figure 7, §6.1).
inline constexpr size_t kModelNodes = 14;          // flood cost: one transmission per node
inline constexpr int kModelPathHops = 5;           // reinforced path length, source to sink
inline constexpr double kModelMessageBytes = 127;  // "we approximate all messages as 127B long"
inline constexpr SimDuration kModelInterestPeriod = 60 * kSecond;
inline constexpr SimDuration kModelDataPeriod = 6 * kSecond;  // one event per 6 s
inline constexpr double kModelExploratoryFraction = 0.1;      // 1 in 10 data messages

enum class AggregationModel {
  // Every source's copy travels the whole path; floods don't merge.
  kNone,
  // The paper's idealization behind "a flat 990 B/event": after aggregation
  // exactly one copy of each event flows anywhere — one reinforced path, one
  // merged exploratory flood — independent of the source count.
  kIdeal,
  // The more detailed reading of "aggregated after the first hop": each
  // source pays one hop to the aggregation point, then a single copy covers
  // the rest of the path.
  kFirstHop,
};

// Expected diffusion bytes transmitted network-wide per distinct event.
double ModelBytesPerEvent(int sources, AggregationModel model);

// The individual terms (messages per event), exposed for tests and tables.
double ModelInterestMessagesPerEvent();
double ModelDataMessagesPerEvent(int sources, AggregationModel model);
double ModelExploratoryMessagesPerEvent(int sources, AggregationModel model);
double ModelReinforcementMessagesPerEvent(int sources, AggregationModel model);

}  // namespace diffusion

#endif  // SRC_TESTBED_TRAFFIC_MODEL_H_
