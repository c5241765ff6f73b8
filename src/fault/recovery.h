// Recovery observables, derived from the trace stream.
//
// Diffusion has no repair protocol to instrument: repair *is* the normal
// machinery (interest refresh, exploratory floods, reinforcement) running on
// whatever paths survive. So recovery metrics are observational — mark the
// moment a fault lands, then watch the same trace events a healthy run emits:
//
//   time-to-repair      first kDataDelivered at the sink after the mark
//   deliveries lost     sink deliveries that never happened during the outage
//   reinforcement churn kReinforcementSent (+/-) counts after the mark —
//                       how much path rebuilding the repair cost

#ifndef SRC_FAULT_RECOVERY_H_
#define SRC_FAULT_RECOVERY_H_

#include "src/radio/position.h"
#include "src/trace/trace.h"
#include "src/util/time.h"

namespace diffusion {

class RecoveryObserver : public TraceSink {
 public:
  explicit RecoveryObserver(NodeId sink_node) : sink_node_(sink_node) {}

  // Sets the reference instant repair is measured from (the fault for a
  // crash, the heal for a partition). Until this is called, every event
  // counts as "before".
  void MarkFault(SimTime when) {
    marked_ = true;
    fault_time_ = when;
  }

  void OnEvent(const TraceEvent& event) override {
    const bool after = marked_ && event.when >= fault_time_;
    switch (event.kind) {
      case TraceEventKind::kDataDelivered:
        if (event.node != sink_node_) {
          break;
        }
        if (after) {
          ++deliveries_after_fault_;
          if (!repaired_) {
            repaired_ = true;
            first_delivery_after_fault_ = event.when;
          }
        } else {
          ++deliveries_before_fault_;
        }
        break;
      case TraceEventKind::kReinforcementSent:
        if (event.value > 0) {
          ++(after ? reinforcements_after_fault_ : reinforcements_before_fault_);
        } else {
          ++(after ? negative_reinforcements_after_fault_
                   : negative_reinforcements_before_fault_);
        }
        break;
      default:
        break;
    }
  }

  bool marked() const { return marked_; }
  SimTime fault_time() const { return fault_time_; }
  bool repaired() const { return repaired_; }
  SimTime first_delivery_after_fault() const { return first_delivery_after_fault_; }

  uint64_t deliveries_before_fault() const { return deliveries_before_fault_; }
  uint64_t deliveries_after_fault() const { return deliveries_after_fault_; }
  uint64_t reinforcements_before_fault() const { return reinforcements_before_fault_; }
  uint64_t reinforcements_after_fault() const { return reinforcements_after_fault_; }
  uint64_t negative_reinforcements_before_fault() const {
    return negative_reinforcements_before_fault_;
  }
  uint64_t negative_reinforcements_after_fault() const {
    return negative_reinforcements_after_fault_;
  }

 private:
  NodeId sink_node_;
  bool marked_ = false;
  SimTime fault_time_ = 0;
  bool repaired_ = false;
  SimTime first_delivery_after_fault_ = 0;
  uint64_t deliveries_before_fault_ = 0;
  uint64_t deliveries_after_fault_ = 0;
  uint64_t reinforcements_before_fault_ = 0;
  uint64_t reinforcements_after_fault_ = 0;
  uint64_t negative_reinforcements_before_fault_ = 0;
  uint64_t negative_reinforcements_after_fault_ = 0;
};

}  // namespace diffusion

#endif  // SRC_FAULT_RECOVERY_H_
