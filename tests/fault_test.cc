// Fault injection subsystem (src/fault): node lifecycle under the scheduler's
// cancel-compaction path, cold reboot re-subscription, plan parsing, scenario
// determinism, and channel stats across a detach/attach blackout.

#include <gtest/gtest.h>

#include <string>

#include "src/core/node.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_overlay.h"
#include "src/fault/fault_plan.h"
#include "src/fault/scenarios.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/testbed/topology.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::MakeLineChannel;

AttributeVector Query() {
  return {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "light")};
}

AttributeVector Publication() {
  return {Attribute::String(kKeyType, AttrOp::kIs, "light")};
}

AttributeVector Reading(int32_t value) {
  return {Attribute::Int32(kKeySequence, AttrOp::kIs, value)};
}

// A node killed while it has pending scheduler events (a jittered flood
// rebroadcast, its interest refresh) releases them through Cancel, which
// unlinks them at once, so a dead node's captured state does not sit in the
// heap until its timers would have fired.
TEST(FaultTest, KillCancelsPendingEventsAndHeapStaysCompacted) {
  Simulator sim(1);
  auto channel = MakeLineChannel(&sim, 3);
  DiffusionConfig config;
  config.forward_delay_jitter = 2 * kSecond;  // hold relay forwards pending
  DiffusionNode sink(&sim, channel.get(), 1,
                     NodeOptions{.diffusion = config, .radio = FastRadio()});
  DiffusionNode relay(&sim, channel.get(), 2,
                      NodeOptions{.diffusion = config, .radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 3,
                       NodeOptions{.diffusion = config, .radio = FastRadio()});

  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  (void)relay.Subscribe(Query(), [](const AttributeVector&) {});
  // Run into the jitter window: the relay has received the interest floods
  // and holds its rebroadcasts (plus two interest refreshes) pending.
  sim.RunUntil(500 * kMillisecond);

  const size_t pending_before = sim.scheduler().pending();
  relay.Kill();
  const size_t pending_after = sim.scheduler().pending();
  EXPECT_LT(pending_after, pending_before);
  EXPECT_FALSE(relay.alive());

  // Killing an already-dead node is a no-op.
  relay.Kill();
  EXPECT_EQ(sim.scheduler().pending(), pending_after);

  sim.RunUntil(5 * kMinute);
}

// Reboot() is a cold restart: gradient and neighbor state is gone the moment
// it returns (only the application's own subscriptions remain, gradient-less),
// the interest re-floods immediately instead of waiting out the refresh
// period, and data delivery resumes on the re-drawn gradients.
TEST(FaultTest, RebootedNodeResubscribesAndRedrawsGradientsFromScratch) {
  Simulator sim(2);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode observer(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  int delivered = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++delivered; });
  // The observer also subscribes so the sink holds remote-interest gradients.
  (void)observer.Subscribe(Query(), [](const AttributeVector&) {});
  int interests_seen = 0;
  AttributeVector watch = Publication();
  watch.push_back(ClassIs(kClassData));
  watch.push_back(ClassEq(kClassInterest));
  (void)observer.Subscribe(watch, [&](const AttributeVector&) { ++interests_seen; });

  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(20 * kSecond);
  EXPECT_EQ(source.Send(pub, Reading(1)), ApiResult::kOk);
  sim.RunUntil(30 * kSecond);
  EXPECT_EQ(delivered, 1);

  // The sink holds gradient state from the observer's interest flood.
  bool sink_has_gradients = false;
  for (const InterestEntry& entry : sink.gradients().entries()) {
    sink_has_gradients = sink_has_gradients || !entry.gradients.empty() || !entry.is_local;
  }
  EXPECT_TRUE(sink_has_gradients);

  const int interests_before_reboot = interests_seen;
  sink.Reboot();
  // Cold: only the node's own (local) interest entries survive, with every
  // gradient dropped. The re-flood is scheduled but has not yet run.
  for (const InterestEntry& entry : sink.gradients().entries()) {
    EXPECT_TRUE(entry.is_local);
    EXPECT_TRUE(entry.gradients.empty());
  }
  EXPECT_TRUE(sink.alive());
  EXPECT_TRUE(sink.Neighbors().empty());

  // The interest re-floods promptly (well within the 60 s refresh period) —
  // and is not suppressed by the observer's duplicate cache, because origin
  // sequence numbers keep counting across the reboot.
  sim.RunUntil(40 * kSecond);
  EXPECT_GT(interests_seen, interests_before_reboot);

  // Delivery resumes on gradients re-drawn from scratch.
  EXPECT_EQ(source.Send(pub, Reading(2)), ApiResult::kOk);
  sim.RunUntil(50 * kSecond);
  EXPECT_EQ(delivered, 2);
}

TEST(FaultTest, FaultPlanParsesSortsAndRoundTrips) {
  const std::string json = R"({
    "schema": "diffusion-fault-plan-v1",
    "events": [
      {"at_ms": 420000, "kind": "heal"},
      {"at_ms": 240000, "kind": "partition",
       "group_a": [11, 13], "group_b": [28, 21]},
      {"at_ms": 120000, "kind": "link_degrade", "from": 20, "to": 17,
       "delivery": 0.25, "symmetric": false},
      {"at_ms": 60000, "kind": "crash_hottest_relay", "exclude": [28, 20]},
      {"at_ms": 30000, "kind": "crash", "node": 17}
    ]
  })";
  std::string error;
  std::optional<FaultPlan> plan = ParseFaultPlan(json, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 5u);
  // Sorted by time.
  EXPECT_EQ(plan->events.front().kind, FaultEventKind::kCrash);
  EXPECT_EQ(plan->events.front().at, 30 * kSecond);
  EXPECT_EQ(plan->events.back().kind, FaultEventKind::kHeal);
  EXPECT_EQ(plan->events[2].delivery, 0.25);
  EXPECT_FALSE(plan->events[2].symmetric);
  EXPECT_EQ(plan->events[1].exclude, (std::vector<NodeId>{28, 20}));

  // Canonical form reparses to the same plan.
  const std::string canonical = FaultPlanToJson(*plan);
  std::optional<FaultPlan> reparsed = ParseFaultPlan(canonical, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  ASSERT_EQ(reparsed->events.size(), plan->events.size());
  for (size_t i = 0; i < plan->events.size(); ++i) {
    EXPECT_EQ(reparsed->events[i].at, plan->events[i].at);
    EXPECT_EQ(reparsed->events[i].kind, plan->events[i].kind);
    EXPECT_EQ(reparsed->events[i].node, plan->events[i].node);
    EXPECT_EQ(reparsed->events[i].from, plan->events[i].from);
    EXPECT_EQ(reparsed->events[i].to, plan->events[i].to);
    EXPECT_EQ(reparsed->events[i].delivery, plan->events[i].delivery);
    EXPECT_EQ(reparsed->events[i].symmetric, plan->events[i].symmetric);
    EXPECT_EQ(reparsed->events[i].group_a, plan->events[i].group_a);
    EXPECT_EQ(reparsed->events[i].group_b, plan->events[i].group_b);
  }
}

TEST(FaultTest, FaultPlanRejectsMalformedSpecs) {
  std::string error;
  // Unknown kind.
  EXPECT_FALSE(ParseFaultPlan(
                   R"({"events": [{"at_ms": 1, "kind": "meteor_strike"}]})", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  // Delivery out of range.
  EXPECT_FALSE(ParseFaultPlan(
                   R"({"events": [{"at_ms": 1, "kind": "node_degrade", "node": 2,
                       "delivery": 1.5}]})",
                   &error)
                   .has_value());
  // Wrong schema string.
  EXPECT_FALSE(
      ParseFaultPlan(R"({"schema": "other-v2", "events": []})", &error).has_value());
  // Partition without groups.
  EXPECT_FALSE(
      ParseFaultPlan(R"({"events": [{"at_ms": 1, "kind": "partition"}]})", &error).has_value());
  // Not JSON at all.
  EXPECT_FALSE(ParseFaultPlan("=== banner ===", &error).has_value());
}

TEST(FaultTest, OverlaySeversDegradesAndHeals) {
  TestbedLayout layout = IsiTestbedLayout();
  FaultOverlayPropagation overlay(MakePropagation(layout, 0.9));
  ASSERT_TRUE(overlay.Reaches(20, 17));
  ASSERT_DOUBLE_EQ(overlay.DeliveryProbability(20, 17, 0), 0.9);

  overlay.DegradeLink(20, 17, 0.25);
  EXPECT_DOUBLE_EQ(overlay.DeliveryProbability(20, 17, 0), 0.25);
  EXPECT_DOUBLE_EQ(overlay.DeliveryProbability(17, 20, 0), 0.9);  // directed
  // A degrade can only make a link worse than the inner model says.
  overlay.DegradeLink(20, 37, 0.99);
  EXPECT_DOUBLE_EQ(overlay.DeliveryProbability(20, 37, 0), 0.9);

  overlay.BlackoutLink(20, 17);
  EXPECT_FALSE(overlay.Reaches(20, 17));
  EXPECT_DOUBLE_EQ(overlay.DeliveryProbability(20, 17, 0), 0.0);

  overlay.Partition({25, 22, 20}, {17, 37});
  EXPECT_FALSE(overlay.Reaches(20, 17));  // cross-side: severed both ways
  EXPECT_FALSE(overlay.Reaches(17, 20));
  EXPECT_TRUE(overlay.Reaches(25, 22));   // same side: unaffected
  EXPECT_TRUE(overlay.Reaches(17, 21));   // 21 is in neither group

  overlay.Heal();
  EXPECT_TRUE(overlay.Reaches(20, 17));
  EXPECT_DOUBLE_EQ(overlay.DeliveryProbability(20, 17, 0), 0.9);
}

// Per-endpoint channel counters survive a Detach/Attach cycle (the fix this
// PR ships): a blackout parks the stats, reattach restores them, and
// NodeStatsSinceAttach measures the new attachment only.
TEST(FaultTest, ChannelStatsParkAcrossDetachAndRestoreOnAttach) {
  Simulator sim(3);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});

  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(10 * kSecond);
  ASSERT_EQ(source.Send(pub, Reading(1)), ApiResult::kOk);
  sim.RunUntil(15 * kSecond);

  const ChannelStats before = channel->NodeStats(2);
  ASSERT_GT(before.transmissions, 0u);
  ASSERT_GT(before.deliveries, 0u);

  channel->Detach(2);
  // Parked counters stay readable while detached.
  EXPECT_EQ(channel->NodeStats(2).transmissions, before.transmissions);
  // Nothing attributed to an attachment that does not exist.
  EXPECT_EQ(channel->NodeStatsSinceAttach(2).transmissions, 0u);

  channel->Attach(&source.radio());
  EXPECT_EQ(channel->NodeStats(2).transmissions, before.transmissions);
  EXPECT_EQ(channel->NodeStats(2).deliveries, before.deliveries);
  EXPECT_EQ(channel->NodeStatsSinceAttach(2).transmissions, 0u);

  // New traffic accrues to both lifetime and since-attach views.
  ASSERT_EQ(source.Send(pub, Reading(2)), ApiResult::kOk);
  sim.RunUntil(20 * kSecond);
  EXPECT_GT(channel->NodeStats(2).transmissions, before.transmissions);
  EXPECT_GT(channel->NodeStatsSinceAttach(2).transmissions, 0u);
  EXPECT_EQ(channel->NodeStats(2).transmissions - channel->NodeStatsSinceAttach(2).transmissions,
            before.transmissions);
}

// The crash scenario is the acceptance gate: a reinforced-path relay dies and
// delivery resumes within 2x the interest refresh period, identically across
// repeated runs with the same seed.
TEST(FaultTest, CrashScenarioRepairsWithinBoundAndIsDeterministic) {
  FaultScenarioParams params;  // the bench's default schedule
  params.scenario = FaultScenario::kCrash;
  params.seed = 1;

  const FaultScenarioResult first = RunFaultScenario(params);
  ASSERT_GE(first.time_to_repair_s, 0.0) << "network never repaired";
  EXPECT_LE(first.time_to_repair_s, first.repair_bound_s);
  // The victim is a real relay, not the sink/sources/bridge the plan excludes.
  EXPECT_NE(first.faulted_node, kBroadcastId);
  EXPECT_NE(first.faulted_node, kIsiSinkNode);
  EXPECT_NE(first.faulted_node, kIsiAudioNode);
  EXPECT_GT(first.delivery_pre, 0.5);
  EXPECT_GT(first.delivery_post, 0.5);

  const FaultScenarioResult second = RunFaultScenario(params);
  EXPECT_EQ(first.time_to_repair_s, second.time_to_repair_s);
  EXPECT_EQ(first.faulted_node, second.faulted_node);
  EXPECT_EQ(first.deliveries_total, second.deliveries_total);
  EXPECT_EQ(first.events_lost_during_outage, second.events_lost_during_outage);
  EXPECT_EQ(first.reinforcements_after_fault, second.reinforcements_after_fault);
  EXPECT_EQ(first.stale_gradients_at_sample, second.stale_gradients_at_sample);
}

// FaultInjector bookkeeping: crash detaches and marks dead, reboot restores,
// stale-gradient counting sees gradients pointing at the dead node.
TEST(FaultTest, InjectorTracksDeadNodesAndStaleGradients) {
  Simulator sim(4);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode relay(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  FaultInjector injector(&sim, channel.get(), nullptr);
  injector.AddNode(&sink);
  injector.AddNode(&relay);
  injector.AddNode(&source);

  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(10 * kSecond);
  // Everyone heard the sink's interest: gradients toward node 1 exist.
  EXPECT_EQ(injector.CountStaleGradients(), 0u);

  FaultEvent crash;
  crash.kind = FaultEventKind::kCrash;
  crash.node = 1;
  injector.Execute(crash);
  EXPECT_TRUE(injector.IsDead(1));
  EXPECT_FALSE(sink.alive());
  // Live nodes still hold gradients toward the dead sink.
  EXPECT_GT(injector.CountStaleGradients(), 0u);
  ASSERT_EQ(injector.executed().size(), 1u);
  EXPECT_EQ(injector.executed().front().node, 1u);

  FaultEvent reboot;
  reboot.kind = FaultEventKind::kReboot;
  reboot.node = 1;
  injector.Execute(reboot);
  EXPECT_FALSE(injector.IsDead(1));
  EXPECT_TRUE(sink.alive());

  // The stale gradients age out within gradient_lifetime — soft state needs
  // no teardown protocol.
  sim.RunUntil(10 * kSecond + sink.config().gradient_lifetime + kMinute);
  EXPECT_EQ(injector.CountStaleGradients(), 0u);
}

}  // namespace
}  // namespace diffusion
