// Canned fault-recovery scenarios over the ISI testbed (Figure 7).
//
// Each scenario runs the §6.1 surveillance workload on the 14-node layout
// (sink 28, one source at node 25, 98% per-link delivery), lets the network
// settle for 60 s, injects a fault at 4 min, and measures until 11 min how
// the paper's soft-state machinery repairs delivery with no dedicated
// recovery protocol. The expectation being tested: time-to-repair is bounded
// by the periodic re-excitation the protocol already pays for — the next
// exploratory flood (every exploratory_every-th event) or interest refresh
// (every kInterestRefresh), i.e. well under 2x the refresh period.
//
//   crash      kill the busiest alive relay on the reinforced path (sink,
//              sources and cut-vertex 20 excluded, so alternates exist);
//              repair is measured from the crash instant
//   degrade    cap every link through relay 20 — the bridge all
//              source-to-sink traffic crosses — at 25% delivery, then heal
//              at 7 min; repair is measured from the heal
//   partition  sever the source cluster {11,13,16,22,25,20} from the sink
//              side, then heal at 7 min; repair is measured from the heal
//
// A custom plan runs through the library directly: build a FaultPlan and
// hand it to FaultInjector::Schedule (src/fault/fault_plan.h,
// fault_injector.h).

#ifndef SRC_FAULT_SCENARIOS_H_
#define SRC_FAULT_SCENARIOS_H_

#include "src/fault/fault_plan.h"
#include "src/trace/trace.h"

namespace diffusion {

enum class FaultScenario { kCrash, kDegrade, kPartition };

const char* FaultScenarioName(FaultScenario scenario);

struct FaultScenarioParams {
  FaultScenario scenario = FaultScenario::kCrash;
  uint64_t seed = 1;

  // Borrowed flight-recorder sink (null = untraced; the replication harness
  // injects a private per-replicate buffer); must outlive the run.
  TraceSink* trace_sink = nullptr;
};

struct FaultScenarioResult {
  // The node the fault actually hit (the resolved hottest relay for crash,
  // the degraded node for degrade, kBroadcastId == none for partition).
  NodeId faulted_node = 0xffffffff;

  // Seconds from the repair reference (crash instant, or heal for
  // degrade/partition) to the first subsequent sink delivery; -1 = never.
  double time_to_repair_s = -1.0;
  double repair_bound_s = 0.0;  // 2x kInterestRefresh, the acceptance bound

  // Fraction of generated events delivered (eventually) per window:
  // pre = [warmup, fault), during = the outage window (crash: fault..repair;
  // degrade/partition: fault..heal), post = repair/heal .. end - 30 s.
  double delivery_pre = 0.0;
  double delivery_during = 0.0;
  double delivery_post = 0.0;
  uint64_t events_lost_during_outage = 0;

  // Path-rebuilding cost after the repair reference.
  uint64_t reinforcements_after_fault = 0;
  uint64_t negative_reinforcements_after_fault = 0;

  // Gradients still pointing at dead nodes, sampled 30 s past the fault
  // (nonzero only while crash damage has not aged out).
  uint64_t stale_gradients_at_sample = 0;

  uint64_t deliveries_total = 0;  // every data arrival at the sink
};

// Runs one scenario to completion. Deterministic per (scenario, seed): repeated
// runs produce identical results field-for-field.
FaultScenarioResult RunFaultScenario(const FaultScenarioParams& params);

}  // namespace diffusion

#endif  // SRC_FAULT_SCENARIOS_H_
