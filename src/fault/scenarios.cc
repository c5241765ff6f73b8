#include "src/fault/scenarios.h"

#include <algorithm>
#include <iostream>
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

bool FaultScenarioFromName(const std::string& name, FaultScenario* scenario) {
  if (name == "crash") {
    *scenario = FaultScenario::kCrash;
    return true;
  }
  if (name == "degrade") {
    *scenario = FaultScenario::kDegrade;
    return true;
  }
  if (name == "partition") {
    *scenario = FaultScenario::kPartition;
    return true;
  }
  return false;
}

FaultPlan BuiltinScenarioPlan(const FaultScenarioParams& params) {
  FaultPlan plan;
  switch (params.scenario) {
    case FaultScenario::kCrash: {
      FaultEvent crash;
      crash.at = params.fault_at;
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
      degrade.at = params.fault_at;
      degrade.kind = FaultEventKind::kNodeDegrade;
      degrade.node = kIsiAudioNode;  // 20: every source->sink path crosses it
      degrade.delivery = params.degrade_delivery;
      plan.events.push_back(degrade);
      FaultEvent heal;
      heal.at = params.heal_at;
      heal.kind = FaultEventKind::kHeal;
      plan.events.push_back(heal);
      break;
    }
    case FaultScenario::kPartition: {
      FaultEvent split;
      split.at = params.fault_at;
      split.kind = FaultEventKind::kPartition;
      split.group_a = kPartitionSourceSide;
      split.group_b = kPartitionSinkSide;
      plan.events.push_back(split);
      FaultEvent heal;
      heal.at = params.heal_at;
      heal.kind = FaultEventKind::kHeal;
      plan.events.push_back(heal);
      break;
    }
  }
  return plan;
}

FaultScenarioResult RunFaultScenario(const FaultScenarioParams& params) {
  RecoveryObserver observer(kIsiSinkNode);
  TeeTraceSink tee(params.trace_sink, &observer);

  const TestbedLayout layout = IsiTestbedLayout();
  auto overlay =
      std::make_unique<FaultOverlayPropagation>(MakePropagation(layout, params.link_delivery));
  FaultOverlayPropagation* overlay_ptr = overlay.get();
  const DiffusionConfig dconfig = TestbedDiffusionConfig();
  TestbedWorld world(params.seed, layout, std::move(overlay),
                     NodeOptions{.diffusion = dconfig, .radio = TestbedRadioConfig()}, &tee);
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

  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  const int source_count = std::min(std::max(params.sources, 1), 4);
  for (int i = 0; i < source_count; ++i) {
    const NodeId id = kIsiSourceNodes[i];
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }
  for (auto& source : sources) {
    sim.At(kSourceStart, [&source] { source->Start(); });
  }

  // The built-in plan, or the caller's override.
  FaultPlan plan;
  if (!params.plan_json.empty()) {
    std::string error;
    std::optional<FaultPlan> parsed = ParseFaultPlan(params.plan_json, &error);
    if (!parsed.has_value()) {
      std::cerr << "error: bad fault plan: " << error << "\n";
      return FaultScenarioResult{};
    }
    plan = std::move(*parsed);
  } else {
    plan = BuiltinScenarioPlan(params);
  }

  // Repair is measured from the instant connectivity can return: the crash
  // itself (alternates exist throughout) or the heal (degrade/partition).
  const SimTime repair_ref =
      params.scenario == FaultScenario::kCrash ? params.fault_at : params.heal_at;
  sim.At(repair_ref, [&observer, repair_ref] { observer.MarkFault(repair_ref); });
  // MarkFault is scheduled before the plan: same-time events run in insertion
  // order, so the mark is in place when a fault lands at repair_ref.
  injector.Schedule(plan);

  uint64_t stale_gradients = 0;
  sim.At(params.fault_at + params.stale_sample_after,
         [&injector, &stale_gradients] { stale_gradients = injector.CountStaleGradients(); });

  sim.RunUntil(params.end_at);

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
  result.interest_refresh_s = DurationToSeconds(dconfig.interest_refresh);
  result.repair_bound_s = 2.0 * result.interest_refresh_s;

  // The outage window: crash = fault to first post-fault delivery (or the
  // run's end when repair never happened); degrade/partition = fault to heal.
  SimTime outage_end;
  if (params.scenario == FaultScenario::kCrash) {
    outage_end = result.time_to_repair_s >= 0.0
                     ? repair_ref + SecondsToDuration(result.time_to_repair_s)
                     : params.end_at;
  } else {
    outage_end = params.heal_at;
  }
  const SimTime post_start =
      params.scenario == FaultScenario::kCrash ? outage_end : params.heal_at;
  const SimTime post_end = params.end_at - 30 * kSecond;  // grace for in-flight events

  result.delivery_pre = window(params.warmup, params.fault_at).rate();
  const WindowDelivery during = window(params.fault_at, outage_end);
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
