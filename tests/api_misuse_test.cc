// API misuse paths introduced by this PR's typed-handle/ApiResult surface,
// plus randomized equivalence of the dispatch fast path (AttributeSet +
// MatchIndex) against the pre-PR reference algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/match_index.h"
#include "src/core/node.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;

AttributeVector Query() {
  return {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "light")};
}

AttributeVector Publication() {
  return {Attribute::String(kKeyType, AttrOp::kIs, "light")};
}

AttributeVector Reading(int32_t value) {
  return {Attribute::Int32(kKeySequence, AttrOp::kIs, value)};
}

// ---- ApiResult misuse paths ----

TEST(ApiMisuseTest, DoubleUnsubscribe) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 1);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  const SubscriptionHandle sub = node.Subscribe(Query(), [](const AttributeVector&) {});
  EXPECT_EQ(node.Unsubscribe(sub), ApiResult::kOk);
  EXPECT_EQ(node.Unsubscribe(sub), ApiResult::kUnknownHandle);
}

TEST(ApiMisuseTest, DoubleUnpublishAndSendAfterUnpublish) {
  Simulator sim(2);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  int received = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  EXPECT_EQ(source.Send(pub, Reading(1)), ApiResult::kOk);
  EXPECT_EQ(source.Unpublish(pub), ApiResult::kOk);
  EXPECT_EQ(source.Unpublish(pub), ApiResult::kUnknownHandle);
  // The handle is dead: sending must fail crisply, not silently drop.
  EXPECT_EQ(source.Send(pub, Reading(2)), ApiResult::kUnknownHandle);
  sim.RunUntil(5 * kSecond);
  EXPECT_EQ(received, 1);
}

TEST(ApiMisuseTest, SendOnDeadNode) {
  Simulator sim(3);
  auto channel = MakeCliqueChannel(&sim, 1);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  const PublicationHandle pub = node.Publish(Publication());
  node.Kill();
  EXPECT_EQ(node.Send(pub, Reading(1)), ApiResult::kNodeDead);
}

// A filter that removes itself inside its callback and then re-injects with
// its (now dead) handle: the message must still reach the core, and the node
// must record the stale re-injection in its stats and in the trace.
TEST(ApiMisuseTest, SelfRemovingFilterIsCountedAndTraced) {
  Simulator sim(4);
  auto channel = MakeCliqueChannel(&sim, 1);
  MemoryTraceSink trace;
  sim.set_trace_sink(&trace);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  FilterHandle handle = kInvalidHandle;
  handle = node.AddFilter(Query(), 10, [&](Message& message, FilterApi& api) {
    (void)node.RemoveFilter(handle);
    api.SendMessage(std::move(message), handle);
  });
  int delivered = 0;
  (void)node.Subscribe(Query(), [&](const AttributeVector&) { ++delivered; });
  const PublicationHandle pub = node.Publish(Publication());
  sim.RunUntil(100 * kMillisecond);
  EXPECT_EQ(node.Send(pub, Reading(1)), ApiResult::kOk);
  sim.RunUntil(kSecond);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(node.stats().stale_filter_reinjections, 1u);

  int stale_events = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kStaleFilterReinjected) {
      ++stale_events;
      EXPECT_EQ(event.node, 1u);
      EXPECT_EQ(event.value, static_cast<int64_t>(handle.value()));
    }
  }
  EXPECT_EQ(stale_events, 1);
}

// ---- randomized equivalence: fast path vs reference ----

Attribute RandomAttribute(Rng* rng) {
  // A small key pool with repeats, so same-key runs and the discriminator
  // key (class) are well exercised.
  static const AttrKey kKeys[] = {kKeyClass, kKeyType, kKeyTask,  kKeyConfidence,
                                  kKeyXCoord, kKeySequence, kKeyTarget};
  const AttrKey key = kKeys[rng->NextInt(0, 6)];
  const AttrOp op = static_cast<AttrOp>(rng->NextInt(0, 7));  // kIs..kEqAny
  switch (rng->NextInt(0, 3)) {
    case 0:
      return Attribute::Int32(key, op, static_cast<int32_t>(rng->NextInt(0, 3)));
    case 1:
      return Attribute::Float64(key, op, static_cast<double>(rng->NextInt(0, 3)));
    case 2:
      return Attribute::String(key, op, "v" + std::to_string(rng->NextInt(0, 3)));
    default:
      return Attribute::Blob(key, op, {static_cast<uint8_t>(rng->NextInt(0, 3))});
  }
}

AttributeVector RandomSet(Rng* rng, int min_attrs, int max_attrs) {
  AttributeVector attrs;
  const int count = static_cast<int>(rng->NextInt(min_attrs, max_attrs));
  for (int i = 0; i < count; ++i) {
    attrs.push_back(RandomAttribute(rng));
  }
  return attrs;
}

TEST(MatchEquivalenceTest, MergeScanAgreesWithLinearReference) {
  Rng rng(42);
  for (int iter = 0; iter < 2000; ++iter) {
    const AttributeVector a = RandomSet(&rng, 0, 8);
    const AttributeVector b = RandomSet(&rng, 0, 8);
    const AttributeSet sa(a);
    const AttributeSet sb(b);
    EXPECT_EQ(OneWayMatch(sa, sb), OneWayMatchLinear(a, b));
    EXPECT_EQ(TwoWayMatch(sa, sb), TwoWayMatchLinear(a, b));
    EXPECT_EQ(ExactMatch(sa, sb), ExactMatchLinear(a, b));
  }
}

TEST(MatchEquivalenceTest, AttributeSetHashMatchesVectorHash) {
  Rng rng(43);
  for (int iter = 0; iter < 500; ++iter) {
    const AttributeVector attrs = RandomSet(&rng, 0, 8);
    const AttributeSet set(attrs);
    // Canonicalization must not change the order-insensitive hash.
    EXPECT_EQ(set.hash(), HashAttributes(attrs));
  }
}

TEST(MatchEquivalenceTest, IncrementalAddRemoveKeepsHashCanonical) {
  Rng rng(44);
  for (int iter = 0; iter < 200; ++iter) {
    AttributeSet set;
    AttributeVector mirror;
    for (int i = 0; i < 6; ++i) {
      const Attribute attr = RandomAttribute(&rng);
      set.Add(attr);
      mirror.push_back(attr);
    }
    EXPECT_EQ(set.hash(), HashAttributes(mirror));
    const AttrKey victim = mirror[static_cast<size_t>(rng.NextInt(0, 5))].key();
    set.RemoveKey(victim);
    mirror.erase(std::remove_if(mirror.begin(), mirror.end(),
                                [&](const Attribute& a) { return a.key() == victim; }),
                 mirror.end());
    EXPECT_EQ(set.hash(), HashAttributes(mirror));
    EXPECT_EQ(set, AttributeSet(mirror));
  }
}

// The MatchIndex dispatch must reproduce the full-chain scan exactly: same
// matched entries, visited in the same (ascending-id) order.
TEST(MatchEquivalenceTest, IndexedDispatchMatchesFullScan) {
  Rng rng(45);
  for (int iter = 0; iter < 300; ++iter) {
    // Entries lean on class formals like real filters/subscriptions do, but
    // a third are random (any_/unconstrained coverage).
    std::vector<AttributeSet> entries;
    for (int i = 0; i < 24; ++i) {
      AttributeVector attrs = RandomSet(&rng, 0, 4);
      if (i % 3 != 0) {
        attrs.push_back(rng.NextBool(0.5) ? ClassEq(kClassInterest) : ClassEq(kClassData));
      }
      entries.push_back(AttributeSet(std::move(attrs)));
    }
    MatchIndex index(kKeyClass);
    for (size_t i = 0; i < entries.size(); ++i) {
      index.Insert(static_cast<uint32_t>(i), 0, &entries[i]);
    }

    AttributeVector message_attrs = RandomSet(&rng, 0, 6);
    if (rng.NextBool(0.8)) {
      message_attrs.push_back(rng.NextBool(0.5) ? ClassIs(kClassInterest) : ClassIs(kClassData));
    }
    const AttributeSet message(message_attrs);

    std::vector<uint32_t> full_scan;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (OneWayMatch(entries[i], message)) {
        full_scan.push_back(static_cast<uint32_t>(i));
      }
    }

    // Candidate collection mirrors DeliverLocalData: confirm each candidate.
    // The index guarantees at-most-once visits now, so a duplicate here is a
    // contract violation, not something to silently dedupe.
    std::vector<uint32_t> indexed;
    index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) {
      if (OneWayMatch(*entry.attrs, message)) {
        indexed.push_back(entry.id);
      }
    });
    std::sort(indexed.begin(), indexed.end());
    ASSERT_TRUE(std::adjacent_find(indexed.begin(), indexed.end()) == indexed.end())
        << "duplicate candidate visit in iteration " << iter;

    ASSERT_EQ(indexed, full_scan) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace diffusion
