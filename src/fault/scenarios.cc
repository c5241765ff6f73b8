#include "src/fault/scenarios.h"

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_overlay.h"
#include "src/fault/recovery.h"
#include "src/testbed/testbed_world.h"

namespace diffusion {
namespace {

// The partition splits the layout at the gap node 20 bridges: the source
// cluster (x <= 5) plus 20 itself on one side, the sink side on the other.
const std::vector<NodeId> kPartitionSourceSide = {11, 13, 16, 22, 25, 20};
const std::vector<NodeId> kPartitionSinkSide = {17, 37, 18, 21, 24, 28, 33, 39};

constexpr double kLinkDelivery = 0.98;     // baseline per-link delivery probability
constexpr double kDegradeDelivery = 0.25;  // per-link cap during the degrade window
constexpr SimTime kWarmup = 60 * kSecond;  // measurement starts here
constexpr SimTime kFaultAt = 4 * kMinute;  // crash instant / degrade & partition onset
constexpr SimTime kHealAt = 7 * kMinute;   // degrade & partition end (unused by crash)
constexpr SimTime kEndAt = 11 * kMinute;
constexpr SimDuration kStaleSampleAfter = 30 * kSecond;  // kFaultAt + this: stale-gradient probe

FaultPlan BuiltinScenarioPlan(FaultScenario scenario) {
  FaultPlan plan;
  switch (scenario) {
    case FaultScenario::kCrash: {
      FaultEvent crash;
      crash.at = kFaultAt;
      crash.kind = FaultEventKind::kCrashHottestRelay;
      // Never kill the sink, an active source, or bridge node 20 — 20 is a
      // cut vertex of the layout, and killing it tests partition behavior,
      // not local repair around a dead relay.
      crash.exclude.push_back(kIsiSinkNode);
      crash.exclude.push_back(kIsiAudioNode);
      for (NodeId source : kIsiSourceNodes) {
        crash.exclude.push_back(source);
      }
      plan.events.push_back(crash);
      break;
    }
    case FaultScenario::kDegrade: {
      FaultEvent degrade;
      degrade.at = kFaultAt;
      degrade.kind = FaultEventKind::kNodeDegrade;
      degrade.node = kIsiAudioNode;  // 20: every source->sink path crosses it
      degrade.delivery = kDegradeDelivery;
      plan.events.push_back(degrade);
      FaultEvent heal;
      heal.at = kHealAt;
      heal.kind = FaultEventKind::kHeal;
      plan.events.push_back(heal);
      break;
    }
    case FaultScenario::kPartition: {
      FaultEvent split;
      split.at = kFaultAt;
      split.kind = FaultEventKind::kPartition;
      split.group_a = kPartitionSourceSide;
      split.group_b = kPartitionSinkSide;
      plan.events.push_back(split);
      FaultEvent heal;
      heal.at = kHealAt;
      heal.kind = FaultEventKind::kHeal;
      plan.events.push_back(heal);
      break;
    }
  }
  return plan;
}

}  // namespace

const char* FaultScenarioName(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kCrash:
      return "crash";
    case FaultScenario::kDegrade:
      return "degrade";
    case FaultScenario::kPartition:
      return "partition";
  }
  return "unknown";
}

FaultScenarioResult RunFaultScenario(const FaultScenarioParams& params) {
  RecoveryObserver observer(kIsiSinkNode);
  TeeTraceSink tee(params.trace_sink, &observer);

  const TestbedLayout layout = IsiTestbedLayout();
  auto overlay =
      std::make_unique<FaultOverlayPropagation>(MakePropagation(layout, kLinkDelivery));
  FaultOverlayPropagation* overlay_ptr = overlay.get();
  TestbedWorld world(params.seed, layout, std::move(overlay),
                     NodeOptions{.diffusion = TestbedDiffusionConfig(),
                                 .radio = TestbedRadioConfig()},
                     &tee);
  Simulator& sim = world.sim();

  SurveillanceConfig sconfig;
  world.SuppressDuplicates(sconfig);

  FaultInjector injector(&sim, &world.channel(), overlay_ptr);
  for (const auto& [id, node] : world.nodes()) {
    injector.AddNode(node.get());
  }

  // Sink: record when each event sequence first arrives, and every arrival
  // instant (the time-to-repair probe).
  std::map<int64_t, SimTime> first_delivery;
  std::vector<SimTime> delivery_times;
  (void)world.node(kIsiSinkNode)
      ->Subscribe(SurveillanceInterestAttrs(sconfig), [&](const AttributeVector& attrs) {
        const Attribute* seq = FindActual(attrs, kKeySequence);
        if (seq == nullptr) {
          return;
        }
        if (std::optional<int64_t> value = seq->AsInt()) {
          delivery_times.push_back(sim.now());
          first_delivery.emplace(*value, sim.now());
        }
      });

  const NodeId source_id = kIsiSourceNodes[0];
  SurveillanceSource source(world.node(source_id), sconfig, static_cast<int32_t>(source_id));
  sim.At(kSourceStart, [&source] { source.Start(); });

  // Repair is measured from the instant connectivity can return: the crash
  // itself (alternates exist throughout) or the heal (degrade/partition).
  const SimTime repair_ref = params.scenario == FaultScenario::kCrash ? kFaultAt : kHealAt;
  sim.At(repair_ref, [&observer, repair_ref] { observer.MarkFault(repair_ref); });
  // MarkFault is scheduled before the plan: same-time events run in insertion
  // order, so the mark is in place when a fault lands at repair_ref.
  injector.Schedule(BuiltinScenarioPlan(params.scenario));

  uint64_t stale_gradients = 0;
  sim.At(kFaultAt + kStaleSampleAfter,
         [&injector, &stale_gradients] { stale_gradients = injector.CountStaleGradients(); });

  sim.RunUntil(kEndAt);

  // Window accounting over generated event sequences: "delivered" means the
  // first copy reached the sink at any later point.
  const auto window = [&](SimTime lo, SimTime hi) {
    return DeliveredInWindow(first_delivery, sconfig.event_interval, lo, hi);
  };

  FaultScenarioResult result;
  for (const ExecutedFault& fault : injector.executed()) {
    if (fault.kind == FaultEventKind::kCrash ||
        fault.kind == FaultEventKind::kCrashHottestRelay ||
        fault.kind == FaultEventKind::kNodeDegrade) {
      result.faulted_node = fault.node;
      break;
    }
  }

  for (SimTime when : delivery_times) {
    if (when >= repair_ref) {
      result.time_to_repair_s = DurationToSeconds(when - repair_ref);
      break;
    }
  }
  result.repair_bound_s = 2.0 * DurationToSeconds(kInterestRefresh);

  // The outage window: crash = fault to first post-fault delivery (or the
  // run's end when repair never happened); degrade/partition = fault to heal.
  SimTime outage_end;
  if (params.scenario == FaultScenario::kCrash) {
    outage_end = result.time_to_repair_s >= 0.0
                     ? repair_ref + SecondsToDuration(result.time_to_repair_s)
                     : kEndAt;
  } else {
    outage_end = kHealAt;
  }
  const SimTime post_start = params.scenario == FaultScenario::kCrash ? outage_end : kHealAt;
  const SimTime post_end = kEndAt - 30 * kSecond;  // grace for in-flight events

  result.delivery_pre = window(kWarmup, kFaultAt).rate();
  const WindowDelivery during = window(kFaultAt, outage_end);
  result.delivery_during = during.rate();
  result.events_lost_during_outage = during.possible - during.delivered;
  result.delivery_post = window(post_start, post_end).rate();

  result.reinforcements_after_fault = observer.reinforcements_after_fault();
  result.negative_reinforcements_after_fault = observer.negative_reinforcements_after_fault();
  result.stale_gradients_at_sample = stale_gradients;
  result.deliveries_total = static_cast<uint64_t>(delivery_times.size());
  return result;
}

}  // namespace diffusion
