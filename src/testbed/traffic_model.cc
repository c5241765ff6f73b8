#include "src/testbed/traffic_model.h"

namespace diffusion {

double ModelInterestMessagesPerEvent() {
  // One flood (a transmission per node) per interest period, normalized to
  // the event period: 14 * (6/60) = 1.4 messages per event in the testbed.
  return static_cast<double>(kModelNodes) * static_cast<double>(kModelDataPeriod) /
         static_cast<double>(kModelInterestPeriod);
}

double ModelDataMessagesPerEvent(int sources, AggregationModel model) {
  const double data_fraction = 1.0 - kModelExploratoryFraction;
  const double hops = static_cast<double>(kModelPathHops);
  switch (model) {
    case AggregationModel::kNone:
      return data_fraction * static_cast<double>(sources) * hops;
    case AggregationModel::kIdeal:
      return data_fraction * hops;
    case AggregationModel::kFirstHop:
      return data_fraction * (static_cast<double>(sources) + hops - 1.0);
  }
  return 0.0;
}

double ModelExploratoryMessagesPerEvent(int sources, AggregationModel model) {
  const double flood = static_cast<double>(kModelNodes);
  switch (model) {
    case AggregationModel::kNone:
      return kModelExploratoryFraction * static_cast<double>(sources) * flood;
    case AggregationModel::kIdeal:
    case AggregationModel::kFirstHop:
      // Duplicate suppression merges the concurrent floods into one.
      return kModelExploratoryFraction * flood;
  }
  return 0.0;
}

double ModelReinforcementMessagesPerEvent(int sources, AggregationModel model) {
  const double hops = static_cast<double>(kModelPathHops);
  switch (model) {
    case AggregationModel::kNone:
      return kModelExploratoryFraction * static_cast<double>(sources) * hops;
    case AggregationModel::kIdeal:
      return kModelExploratoryFraction * hops;
    case AggregationModel::kFirstHop:
      return kModelExploratoryFraction * (static_cast<double>(sources) + hops - 1.0);
  }
  return 0.0;
}

double ModelBytesPerEvent(int sources, AggregationModel model) {
  const double messages = ModelInterestMessagesPerEvent() +
                          ModelDataMessagesPerEvent(sources, model) +
                          ModelExploratoryMessagesPerEvent(sources, model) +
                          ModelReinforcementMessagesPerEvent(sources, model);
  return messages * kModelMessageBytes;
}

}  // namespace diffusion
