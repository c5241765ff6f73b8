// In-network duplicate suppression (paper §5.1, §6.1).
//
// The aggregation filter used in the testbed experiment: "all nodes were
// configured with aggregation filters that pass the first unique event and
// suppress subsequent events with identical sequence numbers." Coverage of
// deployed sensors overlaps, so one physical event triggers several sources;
// intermediate nodes suppress the duplicates, shrinking traffic toward the
// sink. The filter adds no latency: first copies are forwarded immediately
// (§6.1's latency discussion).

#ifndef SRC_FILTERS_DUPLICATE_SUPPRESSION_FILTER_H_
#define SRC_FILTERS_DUPLICATE_SUPPRESSION_FILTER_H_

#include <cstdint>
#include <memory>

#include "src/core/data_cache.h"
#include "src/core/node.h"

namespace diffusion {

class DuplicateSuppressionFilter {
 public:
  // Attaches to `node`, triggering on messages matching `match_attrs`
  // (typically "class EQ data, type IS <task>"). Events are identified by
  // their kKeySequence actual; messages without one pass untouched. The
  // last `window` distinct sequences are remembered, oldest evicted first.
  DuplicateSuppressionFilter(DiffusionNode* node, AttributeVector match_attrs, int16_t priority,
                             size_t window = 256);
  ~DuplicateSuppressionFilter();

  DuplicateSuppressionFilter(const DuplicateSuppressionFilter&) = delete;
  DuplicateSuppressionFilter& operator=(const DuplicateSuppressionFilter&) = delete;

  uint64_t passed() const { return passed_; }
  uint64_t suppressed() const { return suppressed_; }

  // Registers "filter.passed" / "filter.suppressed" counters for the host
  // node's id. The filter must outlive collections from `registry`.
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  void Run(Message& message, FilterApi& api);

  DiffusionNode* node_;
  FilterHandle handle_ = kInvalidHandle;
  DataCache seen_;
  uint64_t passed_ = 0;
  uint64_t suppressed_ = 0;
};

}  // namespace diffusion

#endif  // SRC_FILTERS_DUPLICATE_SUPPRESSION_FILTER_H_
