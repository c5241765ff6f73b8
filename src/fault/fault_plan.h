// Deterministic fault plans.
//
// The paper's testbed was failure-prone by construction — hidden terminals,
// no ARQ, nodes that dropped off mid-experiment (§6.4) — yet a simulator only
// exercises the protocol's repair machinery if something actually breaks. A
// FaultPlan is a list of fault events (node crash/reboot, link degradation
// and blackout, network partition and heal) built in C++, as
// BuiltinScenarioPlan (src/fault/scenarios.cc) builds its three.
// FaultInjector executes the plan through the ordinary EventScheduler, so a
// faulted run is exactly as reproducible per seed as a healthy one.

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <vector>

#include "src/radio/position.h"
#include "src/util/time.h"

namespace diffusion {

enum class FaultEventKind : uint8_t {
  kCrash = 0,          // node dies (DiffusionNode::Kill + channel detach)
  kReboot,             // node returns cold (DiffusionNode::Reboot + reattach)
  kCrashHottestRelay,  // kill the alive node with the most forwarded
                       // messages, excluding `exclude` (sinks, sources, cut
                       // vertices) — "kill whatever the reinforced path runs
                       // through" without hard-coding a topology-specific id
  kLinkDegrade,        // from->to delivery probability capped at `delivery`
  kLinkBlackout,       // from->to severed entirely
  kLinkRestore,        // remove from->to degrade/blackout overrides
  kNodeDegrade,        // every link touching `node` capped at `delivery`
  kPartition,          // all group_a <-> group_b links severed
  kHeal,               // clear every link-level override (not node state)
};

struct FaultEvent {
  SimTime at = 0;
  FaultEventKind kind = FaultEventKind::kCrash;
  NodeId node = kBroadcastId;  // crash / reboot / node_degrade
  NodeId from = kBroadcastId;  // link events
  NodeId to = kBroadcastId;
  bool symmetric = true;       // link events apply to both directions
  double delivery = 0.0;       // degrade cap
  std::vector<NodeId> exclude;          // crash_hottest_relay
  std::vector<NodeId> group_a, group_b;  // partition
};

struct FaultPlan {
  // Any order. FaultInjector::Schedule runs the events in (`at`, list
  // index) order: the scheduler breaks same-time ties by insertion order.
  std::vector<FaultEvent> events;
};

}  // namespace diffusion

#endif  // SRC_FAULT_FAULT_PLAN_H_
