// Edge cases of the public DiffusionNode API surface (Figures 4-5).

#include <gtest/gtest.h>

#include <concepts>
#include <type_traits>

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

TEST(NodeApiTest, UnsubscribeUnknownHandleFails) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 1);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  EXPECT_EQ(node.Unsubscribe(SubscriptionHandle{12345}), ApiResult::kUnknownHandle);
  EXPECT_EQ(node.Unpublish(PublicationHandle{12345}), ApiResult::kUnknownHandle);
  EXPECT_EQ(node.RemoveFilter(FilterHandle{12345}), ApiResult::kUnknownHandle);
  EXPECT_EQ(node.Send(PublicationHandle{12345}, Reading(1)), ApiResult::kUnknownHandle);
}

TEST(NodeApiTest, HandleKindsAreDistinctTypes) {
  // Since this PR, handles of different kinds are distinct types: passing a
  // PublicationHandle to Unsubscribe (or mixing kinds in ==) is a compile
  // error rather than a silent runtime lookup against the wrong table.
  static_assert(!std::is_invocable_v<decltype(&DiffusionNode::Unsubscribe), DiffusionNode&,
                                     PublicationHandle>);
  static_assert(!std::is_invocable_v<decltype(&DiffusionNode::Unsubscribe), DiffusionNode&,
                                     FilterHandle>);
  static_assert(
      !std::is_invocable_v<decltype(&DiffusionNode::Unpublish), DiffusionNode&, SubscriptionHandle>);
  static_assert(
      !std::is_invocable_v<decltype(&DiffusionNode::RemoveFilter), DiffusionNode&, PublicationHandle>);
  static_assert(!std::is_invocable_v<decltype(&DiffusionNode::Send), DiffusionNode&,
                                     SubscriptionHandle, const AttributeVector&>);
  static_assert(!std::equality_comparable_with<SubscriptionHandle, PublicationHandle>);
  static_assert(!std::equality_comparable_with<PublicationHandle, FilterHandle>);

  // Raw handle ids are per-node unique even across kinds.
  Simulator sim(2);
  auto channel = MakeCliqueChannel(&sim, 1);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  const SubscriptionHandle sub = node.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = node.Publish(Publication());
  // Callback drops everything; this test only exercises handle allocation.
  const FilterHandle filter = node.AddFilter(Query(), 1, [](Message&, FilterApi&) {});
  EXPECT_NE(sub.value(), pub.value());
  EXPECT_NE(pub.value(), filter.value());
  EXPECT_NE(sub.value(), filter.value());
}

TEST(NodeApiTest, PublishPreservesExplicitClassActual) {
  Simulator sim(3);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int received = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector& attrs) {
    // Exactly one class actual must be present.
    int class_actuals = 0;
    for (const Attribute& attr : attrs) {
      if (attr.key() == kKeyClass && attr.IsActual()) {
        ++class_actuals;
      }
    }
    EXPECT_EQ(class_actuals, 1);
    ++received;
  });
  AttributeVector attrs = Publication();
  attrs.push_back(ClassIs(kClassData));  // explicit: Publish must not duplicate
  const PublicationHandle pub = source.Publish(attrs);
  sim.RunUntil(kSecond);
  (void)source.Send(pub, Reading(1));
  sim.RunUntil(5 * kSecond);
  EXPECT_EQ(received, 1);
}

TEST(NodeApiTest, TwoSubscriptionsSameAttrsBothDelivered) {
  Simulator sim(4);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int first = 0;
  int second = 0;
  const SubscriptionHandle a = sink.Subscribe(Query(), [&](const AttributeVector&) { ++first; });
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++second; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  (void)source.Send(pub, Reading(1));
  sim.RunUntil(3 * kSecond);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);

  // Dropping one must not tear down the shared local interest entry.
  (void)sink.Unsubscribe(a);
  sim.RunUntil(4 * kSecond);
  (void)source.Send(pub, Reading(2));
  sim.RunUntil(6 * kSecond);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST(NodeApiTest, SamePriorityFiltersDoNotCascade) {
  // Re-injection continues strictly *below* the invoking filter's priority,
  // so two filters at the same priority never both see one message; the
  // earlier registration wins.
  Simulator sim(5);
  auto channel = MakeCliqueChannel(&sim, 1);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  std::vector<int> order;
  FilterHandle first = kInvalidHandle;
  FilterHandle second = kInvalidHandle;
  first = node.AddFilter(Query(), 10, [&](Message& message, FilterApi& api) {
    order.push_back(1);
    api.SendMessage(std::move(message), first);
  });
  second = node.AddFilter(Query(), 10, [&](Message& message, FilterApi& api) {
    order.push_back(2);
    api.SendMessage(std::move(message), second);
  });
  int delivered = 0;
  (void)node.Subscribe(Query(), [&](const AttributeVector&) { ++delivered; });
  const PublicationHandle pub = node.Publish(Publication());
  sim.RunUntil(100 * kMillisecond);
  (void)node.Send(pub, Reading(1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(delivered, 1);  // the message still reached the core
}

TEST(NodeApiTest, FilterRemovingItselfMidCallbackIsSafe) {
  Simulator sim(6);
  auto channel = MakeCliqueChannel(&sim, 1);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  int hits = 0;
  FilterHandle handle = kInvalidHandle;
  handle = node.AddFilter(Query(), 10, [&](Message& message, FilterApi& api) {
    ++hits;
    (void)node.RemoveFilter(handle);
    api.SendMessage(std::move(message), handle);  // handle now dead: goes to core
  });
  int delivered = 0;
  (void)node.Subscribe(Query(), [&](const AttributeVector&) { ++delivered; });
  const PublicationHandle pub = node.Publish(Publication());
  sim.RunUntil(100 * kMillisecond);
  (void)node.Send(pub, Reading(1));
  (void)node.Send(pub, Reading(2));
  sim.RunUntil(kSecond);
  EXPECT_EQ(hits, 1);       // second message no longer filtered
  EXPECT_EQ(delivered, 2);  // both still delivered
}

TEST(NodeApiTest, TtlBoundsDataReach) {
  // flood_ttl = 2 buys two transmissions (origination + one forward): sinks
  // one and two hops away are served, a three-hop sink is out of budget.
  Simulator sim(7);
  auto channel = MakeLineChannel(&sim, 4);
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  DiffusionConfig config;
  config.flood_ttl = 2;
  for (NodeId id = 1; id <= 4; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(&sim, channel.get(), id, NodeOptions{.diffusion = config, .radio = FastRadio()}));
  }
  int one_hop = 0;
  int two_hops = 0;
  int three_hops = 0;
  (void)nodes[2]->Subscribe(Query(), [&](const AttributeVector&) { ++one_hop; });
  (void)nodes[1]->Subscribe(Query(), [&](const AttributeVector&) { ++two_hops; });
  (void)nodes[0]->Subscribe(Query(), [&](const AttributeVector&) { ++three_hops; });
  const PublicationHandle pub = nodes[3]->Publish(Publication());
  sim.RunUntil(2 * kSecond);
  (void)nodes[3]->Send(pub, Reading(1));
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(one_hop, 1);
  EXPECT_EQ(two_hops, 1);
  EXPECT_EQ(three_hops, 0);
}

TEST(NodeApiTest, GarbageRadioPayloadCountsDecodeFailure) {
  Simulator sim(8);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  Radio raw(&sim, channel.get(), 2, FastRadio());
  raw.SendMessage(kBroadcastId, {0xde, 0xad, 0xbe, 0xef, 0x99});
  sim.RunUntil(kSecond);
  EXPECT_EQ(node.stats().decode_failures, 1u);
}

// The receive path decodes bytes from anything that is not a diffusion
// engine's own body (micro nodes, raw radios, frames from another region).
// A well-formed interest arriving that way is delivered like any other.
TEST(NodeApiTest, RawRadioInterestBytesReachLocalWatcher) {
  Simulator sim(9);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  Radio raw(&sim, channel.get(), 2, FastRadio());
  int interests_seen = 0;
  AttributeVector watch = Publication();
  watch.push_back(ClassIs(kClassData));
  watch.push_back(ClassEq(kClassInterest));
  (void)node.Subscribe(watch, [&](const AttributeVector&) { ++interests_seen; });

  Message interest;
  interest.type = MessageType::kInterest;
  interest.origin = 2;
  interest.origin_seq = 1;
  AttributeVector interest_attrs = Query();
  interest_attrs.push_back(ClassIs(kClassInterest));
  interest.attrs = interest_attrs;
  EXPECT_TRUE(raw.SendMessage(kBroadcastId, interest.Serialize()));
  sim.RunUntil(kSecond);
  EXPECT_EQ(interests_seen, 1);
  EXPECT_EQ(node.stats().decode_failures, 0u);
}

// A message the wire encoding cannot carry (a value or an attribute count
// past 65,535) is refused at the sender: nothing goes on the air. The
// longest value that fits still arrives.
TEST(NodeApiTest, RefusesMessagesPastTheWireLimits) {
  const std::vector<uint8_t> longest_blob(kMaxWireLength, 7);
  const std::vector<AttributeVector> sends = {
      {Attribute::Blob(kKeyTarget, AttrOp::kIs, std::vector<uint8_t>(kMaxWireLength + 1, 7))},
      {Attribute::String(kKeyTask, AttrOp::kIs, std::string(kMaxWireLength + 1, 's'))},
      AttributeVector(kMaxWireLength + 1, Attribute::Int32(kKeySequence, AttrOp::kIs, 3)),
      {Attribute::Blob(kKeyTarget, AttrOp::kIs, longest_blob)},
  };
  for (size_t i = 0; i < sends.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "send " << i);
    const bool fits = i + 1 == sends.size();
    Simulator sim(12);
    auto channel = MakeCliqueChannel(&sim, 2);
    RadioConfig radio = FastRadio();
    radio.mac.queue_limit = 4096;  // room for the ~2,430 fragments that fit
    DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = radio});
    DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = radio});
    std::vector<AttributeVector> received;
    (void)sink.Subscribe(Query(), [&](const AttributeVector& attrs) { received.push_back(attrs); });
    const PublicationHandle pub = source.Publish(Publication());
    sim.RunUntil(2 * kSecond);
    const NodeStats before = source.stats();
    (void)source.Send(pub, sends[i]);
    sim.RunUntil(10 * kSecond);
    EXPECT_EQ(source.stats().messages_refused, fits ? 0u : 1u);
    if (fits) {
      ASSERT_EQ(received.size(), 1u);
      const Attribute* blob = FindAttribute(received[0], kKeyTarget);
      ASSERT_NE(blob, nullptr);
      EXPECT_TRUE(*blob->AsBlob() == longest_blob);
    } else {
      EXPECT_TRUE(received.empty());
      EXPECT_EQ(source.stats().bytes_sent, before.bytes_sent);
    }
  }
}

TEST(NodeApiTest, FilterApiExposesGradientsAndNeighbors) {
  Simulator sim(9);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode observer(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode sink(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  size_t seen_entries = 0;
  std::vector<NodeId> seen_neighbors;
  (void)observer.AddFilter({}, 10, [&](Message& message, FilterApi& api) {
    seen_entries = api.gradients().size();
    seen_neighbors = api.Neighbors();
    EXPECT_EQ(api.node_id(), 1u);
    api.SendMessageToNext(std::move(message));
  });
  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(5 * kSecond);
  // After the interest flood, the observer's filter ran with the gradient
  // table already holding the interest (gradient setup precedes the chain?
  // No: the chain runs first, so the first interest sees 0 entries; the
  // refresh sees 1).
  sim.RunUntil(2 * kMinute);
  EXPECT_EQ(seen_entries, 1u);
  ASSERT_FALSE(seen_neighbors.empty());
  EXPECT_EQ(seen_neighbors[0], 2u);
}

TEST(NodeApiTest, KilledNodeStopsRefreshingInterests) {
  Simulator sim(10);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode observer(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int interests_seen = 0;
  AttributeVector watch = Publication();
  watch.push_back(ClassIs(kClassData));
  watch.push_back(ClassEq(kClassInterest));
  (void)observer.Subscribe(watch, [&](const AttributeVector&) { ++interests_seen; });
  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(interests_seen, 1);
  sink.Kill();
  sim.RunUntil(5 * kMinute);
  EXPECT_EQ(interests_seen, 1);  // no refreshes while dead
  sink.Revive();
  sim.RunUntil(7 * kMinute);
  EXPECT_GE(interests_seen, 2);  // refreshes resume
}

}  // namespace
}  // namespace diffusion
