// Protocol-level behaviours: TTL bounding, duration-limited subscriptions,
// negative reinforcement, multipath forwarding, exploratory fallback, and
// the §6.4 radio pathologies (asymmetric and intermittent links).

#include <gtest/gtest.h>

#include "src/core/node.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
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

AttributeVector InterestAttrs() {
  AttributeVector attrs = Query();
  attrs.push_back(ClassIs(kClassInterest));
  return attrs;
}

TEST(TtlTest, FloodStopsAtHopBudget) {
  Simulator sim(1);
  auto channel = MakeLineChannel(&sim, 8);
  DiffusionConfig config;
  config.flood_ttl = 4;
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 8; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.diffusion = config, .radio = FastRadio()}));
  }
  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(10 * kSecond);
  // TTL 4: origin transmits with ttl 4; nodes 2..4 forward (ttl 3, 2, 1);
  // node 5 receives with ttl 1 and stores it but forwards nothing further.
  EXPECT_NE(nodes[4]->gradients().FindExact(InterestAttrs()), nullptr);  // node 5
  EXPECT_EQ(nodes[5]->gradients().FindExact(InterestAttrs()), nullptr);  // node 6
}

TEST(DurationTest, SubscriptionExpiresAfterDuration) {
  Simulator sim(2);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});

  int received = 0;
  AttributeVector query = Query();
  query.push_back(Attribute::Int32(kKeyDuration, AttrOp::kIs, 10'000));  // 10 s task
  (void)sink.Subscribe(query, [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  (void)source.Send(pub, Reading(1));
  sim.RunUntil(5 * kSecond);
  EXPECT_EQ(received, 1);

  // After the duration, the subscription is gone: once remote gradients
  // expire, nothing is delivered and data stops leaving the source.
  sim.RunUntil(10 * kMinute);
  (void)source.Send(pub, Reading(2));
  sim.RunUntil(11 * kMinute);
  EXPECT_EQ(received, 1);
}

TEST(MultipathTest, DataFollowsEveryReinforcedGradient) {
  // A node with two reinforced gradients unicasts matching data to both —
  // the §6.4 future direction ("send similar data over multiple paths")
  // falls out of the gradient representation.
  Simulator sim(3);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode hub(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode left(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode right(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  int left_received = 0;
  int right_received = 0;
  (void)left.Subscribe(Query(), [&](const AttributeVector&) { ++left_received; });
  (void)right.Subscribe(Query(), [&](const AttributeVector&) { ++right_received; });
  const PublicationHandle pub = hub.Publish(Publication());
  sim.RunUntil(2 * kSecond);

  // First (exploratory) event reinforces both sinks' paths.
  (void)hub.Send(pub, Reading(0));
  sim.RunUntil(4 * kSecond);
  InterestEntry* entry = hub.gradients().FindExact(InterestAttrs());
  ASSERT_NE(entry, nullptr);
  int reinforced = 0;
  for (const Gradient& gradient : entry->gradients) {
    if (gradient.reinforced) {
      ++reinforced;
    }
  }
  EXPECT_EQ(reinforced, 2);

  // A regular event is unicast along both reinforced gradients.
  (void)hub.Send(pub, Reading(1));
  sim.RunUntil(6 * kSecond);
  EXPECT_EQ(left_received, 2);
  EXPECT_EQ(right_received, 2);
}

TEST(NegativeReinforcementTest, StalePathTornDown) {
  Simulator sim(4);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionConfig config;
  config.negative_reinforcement_after = 30 * kSecond;
  config.reinforcement_lifetime = 10 * kMinute;
  DiffusionNode sink(&sim, channel.get(), 1,
                     NodeOptions{.diffusion = config, .radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2,
                       NodeOptions{.diffusion = config, .radio = FastRadio()});

  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  (void)source.Send(pub, Reading(0));  // exploratory: sink reinforces the source
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(sink.stats().reinforcements_sent, 1u);

  // The source goes quiet; a later exploratory from it would normally renew
  // the preference. Instead another publisher appears on the same node...
  // simpler: keep sending exploratory events past the staleness window so
  // the sink re-evaluates, with the original upstream no longer winning.
  // With one neighbor this means: silence > window, then an exploratory
  // arrives and the *old* entry is still the winner — so no negative
  // reinforcement. Verify that staleness alone (silence) does not tear down,
  // then that delivery still works (re-reinforcement on the next event).
  sim.RunUntil(2 * kMinute);
  EXPECT_EQ(sink.stats().negative_reinforcements_sent, 0u);
  int received = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++received; });
  (void)source.Send(pub, Reading(1));
  sim.RunUntil(3 * kMinute);
  EXPECT_GE(received, 1);
}

TEST(NegativeReinforcementTest, LosingUpstreamIsNegativelyReinforced) {
  // Diamond 1-{2,3}-4: force path flapping by killing/reviving middles so
  // the sink's preferred upstream changes; the stale one must eventually
  // receive a negative reinforcement and clear its reinforced flag.
  Simulator sim(5);
  auto topology = std::make_unique<ExplicitTopology>();
  topology->AddSymmetricLink(1, 2);
  topology->AddSymmetricLink(1, 3);
  topology->AddSymmetricLink(2, 4);
  topology->AddSymmetricLink(3, 4);
  auto channel = std::make_unique<Channel>(&sim, std::move(topology));
  DiffusionConfig config;
  config.negative_reinforcement_after = 90 * kSecond;
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 4; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.diffusion = config, .radio = FastRadio()}));
  }
  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = nodes[3]->Publish(Publication());
  sim.RunUntil(2 * kSecond);

  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent < 120) {
      (void)nodes[3]->Send(pub, Reading(sent++));
      sim.After(6 * kSecond, tick);
    }
  };
  sim.After(0, tick);

  // Let one path win, then kill that middle node for several exploratory
  // rounds; the sink switches and eventually negatively reinforces the dead
  // neighbor's gradient record.
  sim.RunUntil(90 * kSecond);
  // Find the currently reinforced upstream at the sink.
  InterestEntry* entry = nodes[0]->gradients().FindExact(InterestAttrs());
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->reinforced_upstream.empty());
  const NodeId preferred = entry->reinforced_upstream.begin()->first;
  nodes[preferred - 1]->Kill();

  sim.RunUntil(8 * kMinute);
  EXPECT_GT(nodes[0]->stats().negative_reinforcements_sent, 0u);
  EXPECT_FALSE(entry->reinforced_upstream.contains(preferred));
}

TEST(ExploratoryFallbackTest, UnreinforcedSourceSendsExploratory) {
  Simulator sim(6);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int exploratory_seen = 0;
  int data_seen = 0;
  (void)sink.AddFilter({ClassEq(kClassData)}, 10, [&](Message& message, FilterApi& api) {
    if (message.type == MessageType::kExploratoryData) {
      ++exploratory_seen;
    } else if (message.type == MessageType::kData) {
      ++data_seen;
    }
    api.SendMessageToNext(std::move(message));
  });
  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  // Back-to-back sends: the second goes out before any reinforcement can
  // arrive, so it must fall back to exploratory rather than dying.
  (void)source.Send(pub, Reading(0));
  (void)source.Send(pub, Reading(1));
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(exploratory_seen, 2);
  // After reinforcement, sends are regular data.
  (void)source.Send(pub, Reading(2));
  sim.RunUntil(20 * kSecond);
  EXPECT_EQ(data_seen, 1);
}

TEST(AsymmetricLinkTest, DiffusionFailsAcrossOneWayLinks) {
  // §6.4: "Diffusion does not currently work well with asymmetric links."
  // The interest reaches the source over the working direction, but the
  // data's return path needs the reverse direction, which does not exist.
  Simulator sim(7);
  auto topology = std::make_unique<ExplicitTopology>();
  topology->AddLink(1, 2);  // sink -> source only
  auto channel = std::make_unique<Channel>(&sim, std::move(topology));
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int received = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(2 * kSecond);
  // The source heard the interest (gradient toward the sink exists)...
  EXPECT_NE(source.gradients().FindExact(InterestAttrs()), nullptr);
  // ...but its data can never arrive.
  for (int i = 0; i < 5; ++i) {
    (void)source.Send(pub, Reading(i));
  }
  sim.RunUntil(30 * kSecond);
  EXPECT_EQ(received, 0);
}

TEST(IntermittentLinkTest, DeliveryTracksLinkWindows) {
  // §6.4: "some links provided only intermittent connectivity."
  Simulator sim(8);
  auto topology = std::make_unique<ExplicitTopology>();
  LinkQuality flaky;
  flaky.intermittent = true;
  flaky.period = 60 * kSecond;
  flaky.on_fraction = 0.5;
  topology->AddSymmetricLink(1, 2, flaky);
  auto channel = std::make_unique<Channel>(&sim, std::move(topology));
  DiffusionConfig config;
  config.exploratory_every = 3;  // re-establish quickly after each off window
  DiffusionNode sink(&sim, channel.get(), 1,
                     NodeOptions{.diffusion = config, .radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2,
                       NodeOptions{.diffusion = config, .radio = FastRadio()});
  std::vector<SimTime> deliveries;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { deliveries.push_back(sim.now()); });
  const PublicationHandle pub = source.Publish(Publication());
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent < 120) {
      (void)source.Send(pub, Reading(sent++));
      sim.After(2 * kSecond, tick);
    }
  };
  sim.After(kSecond, tick);
  sim.RunUntil(4 * kMinute);
  // Deliveries happen, but only in the on-windows (first half of each
  // minute).
  ASSERT_GT(deliveries.size(), 10u);
  ASSERT_LT(deliveries.size(), 115u);
  for (SimTime when : deliveries) {
    EXPECT_LT(when % (60 * kSecond), 31 * kSecond) << "delivered during off-window at " << when;
  }
}

TEST(RateControlTest, GradientIntervalDownsamplesData) {
  // §3.1: a gradient records "possibly the desired update rate". Two sinks
  // want the same data at different rates; the slow one's gradient
  // downsamples in-network.
  Simulator sim(301);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode fast_sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode slow_sink(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  int fast_received = 0;
  int slow_received = 0;
  (void)fast_sink.Subscribe(Query(), [&](const AttributeVector&) { ++fast_received; });
  AttributeVector slow_query = Query();
  slow_query.push_back(Attribute::Int32(kKeyInterval, AttrOp::kIs, 5000));  // >= 5 s apart
  (void)slow_sink.Subscribe(slow_query, [&](const AttributeVector&) { ++slow_received; });

  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(2 * kSecond);
  // One event per second for 50 s.
  for (int i = 0; i < 50; ++i) {
    sim.After(i * kSecond, [&, i] { (void)source.Send(pub, Reading(i)); });
  }
  sim.RunUntil(2 * kMinute);
  EXPECT_GT(fast_received, 40);
  EXPECT_GT(slow_received, 5);
  // ~1 per 5 s plus the exploratory rounds (which bypass rate control).
  EXPECT_LT(slow_received, 22);
}

TEST(RateControlTest, UnconstrainedInterestsUnaffected) {
  Simulator sim(302);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int received = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  for (int i = 0; i < 20; ++i) {
    sim.After(i * 100 * kMillisecond, [&, i] { (void)source.Send(pub, Reading(i)); });
  }
  sim.RunUntil(kMinute);
  EXPECT_GE(received, 19);
}

TEST(FilterApiTest, SendToNeighborBypassesRouting) {
  Simulator sim(9);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode a(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode b(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode c(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  // A filter at node 1 redirects every matching data message straight to
  // node 3, regardless of gradients.
  (void)a.AddFilter({ClassEq(kClassData)}, 10, [](Message& message, FilterApi& api) {
    Message redirect = message;
    redirect.origin = api.node_id();
    redirect.origin_seq = api.NewOriginSeq();
    api.SendToNeighbor(std::move(redirect), 3);
  });
  int c_filter_hits = 0;
  // Counts and deliberately drops the message (never re-injected).
  (void)c.AddFilter({ClassEq(kClassData)}, 10, [&](Message&, FilterApi&) { ++c_filter_hits; });

  // Inject one data message at node 1 via its own pub/sub (subscribe so the
  // send is admitted).
  (void)a.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = a.Publish(Publication());
  sim.RunUntil(100 * kMillisecond);
  (void)a.Send(pub, Reading(1));
  sim.RunUntil(2 * kSecond);
  EXPECT_GE(c_filter_hits, 1);
}

TEST(RefreshJitterTest, RefreshPeriodsVaryWithinBounds) {
  Simulator sim(10);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionConfig config;
  DiffusionNode sink(&sim, channel.get(), 1,
                     NodeOptions{.diffusion = config, .radio = FastRadio()});
  DiffusionNode observer(&sim, channel.get(), 2,
                         NodeOptions{.diffusion = config, .radio = FastRadio()});

  std::vector<SimTime> arrivals;
  AttributeVector watch = Publication();
  watch.push_back(ClassIs(kClassData));
  watch.push_back(ClassEq(kClassInterest));
  (void)observer.Subscribe(watch, [&](const AttributeVector&) { arrivals.push_back(sim.now()); });

  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(20 * kMinute);
  ASSERT_GT(arrivals.size(), 10u);
  std::vector<SimDuration> gaps;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    const SimDuration gap = arrivals[i] - arrivals[i - 1];
    gaps.push_back(gap);
    EXPECT_GT(gap, 50 * kSecond);
    EXPECT_LT(gap, 70 * kSecond);
  }
  // And they are not all identical (jitter is real).
  bool varied = false;
  for (size_t i = 1; i < gaps.size(); ++i) {
    if (gaps[i] != gaps[0]) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace diffusion
