// Executes a FaultPlan against a running simulation.
//
// The injector schedules each FaultEvent through the ordinary EventScheduler,
// so faults interleave deterministically with protocol traffic: a given seed
// and plan produce the same packet-level history every run. Node faults go
// through DiffusionNode::Kill/Reboot plus Channel::Detach/Attach (a crashed
// node stops being an interference source or receiver, and its per-endpoint
// channel counters are parked); link faults go through the
// FaultOverlayPropagation the channel was built on.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <map>
#include <set>
#include <vector>

#include "src/core/node.h"
#include "src/fault/fault_overlay.h"
#include "src/fault/fault_plan.h"
#include "src/radio/channel.h"
#include "src/sim/simulator.h"

namespace diffusion {

// One fault after target resolution (crash_hottest_relay picks its victim at
// execution time, from live traffic counters).
struct ExecutedFault {
  SimTime at = 0;
  FaultEventKind kind = FaultEventKind::kCrash;
  NodeId node = kBroadcastId;  // primary target (or `from` end)
  NodeId peer = kBroadcastId;  // secondary target (`to` end)
};

class FaultInjector {
 public:
  // `overlay` may be null when the plan contains only node faults. All
  // pointers are borrowed and must outlive the injector.
  FaultInjector(Simulator* sim, Channel* channel, FaultOverlayPropagation* overlay)
      : sim_(sim), channel_(channel), overlay_(overlay) {}

  // Registers a node the plan may target. Crash/reboot of an unregistered id
  // is a no-op (logged into executed() with node = kBroadcastId).
  void AddNode(DiffusionNode* node);

  // Schedules every event of `plan` on the simulator. Call before Run; may be
  // called more than once (plans compose).
  void Schedule(const FaultPlan& plan);

  // Executes one event immediately (Schedule's callback; also usable directly
  // from tests). Emits a kFaultInjected trace event when tracing is on.
  void Execute(const FaultEvent& event);

  // Every fault that has fired so far, with resolved targets.
  const std::vector<ExecutedFault>& executed() const { return executed_; }

  bool IsDead(NodeId node) const { return dead_.contains(node); }
  const std::set<NodeId>& dead() const { return dead_; }

  // Gradients on living nodes that still point at a dead neighbor — the
  // soft-state staleness the paper's refresh/expiry timers exist to bound.
  // These age out within kGradientLifetime without any repair protocol.
  size_t CountStaleGradients() const;

 private:
  void Crash(NodeId id);
  void Reboot(NodeId id);

  // The alive registered node with the most forwarded messages, excluding
  // `exclude`; ties break toward the lowest id. kBroadcastId when no
  // candidate. This is "kill the reinforced path's busiest relay" without
  // hard-coding a topology-specific node id.
  NodeId PickHottestRelay(const std::vector<NodeId>& exclude) const;

  Simulator* sim_;
  Channel* channel_;
  FaultOverlayPropagation* overlay_;
  std::map<NodeId, DiffusionNode*> nodes_;
  std::set<NodeId> dead_;
  std::vector<ExecutedFault> executed_;
};

}  // namespace diffusion

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
