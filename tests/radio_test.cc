// Tests for the radio substrate: propagation, fragmentation, channel
// collisions, the region partition, the CSMA MAC, and the energy model.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/fault/fault_overlay.h"
#include "src/naming/keys.h"
#include "src/radio/channel.h"
#include "src/radio/energy.h"
#include "src/radio/fragmentation.h"
#include "src/radio/mac.h"
#include "src/radio/propagation.h"
#include "src/radio/radio.h"
#include "src/radio/region_map.h"
#include "src/radio/shadowing.h"
#include "src/sim/simulator.h"
#include "src/testbed/testbed_world.h"
#include "src/testbed/topology.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::BodyBytes;
using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::MakeLineChannel;
using testing_support::SplitBytes;

// ---- Propagation ----

TEST(PropagationTest, DiskRange) {
  DiskPropagation prop(10.0);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {6, 8, 0});   // distance 10
  prop.SetPosition(3, {7, 8, 0});   // distance ~10.6
  EXPECT_TRUE(prop.Reaches(1, 2));
  EXPECT_TRUE(prop.Reaches(2, 1));
  EXPECT_FALSE(prop.Reaches(1, 3));
  EXPECT_FALSE(prop.Reaches(1, 1));  // never reaches self
}

// Positions are indexed by offset from a base id, so ids may arrive in any
// order and sit anywhere in the 32-bit range.
TEST(PropagationTest, DiskPositionsTakeIdsInAnyOrderAnywhere) {
  DiskPropagation prop(10.0);
  constexpr NodeId kTop = 0xfffffffe;
  prop.SetPosition(kTop, {0, 0, 0});
  prop.SetPosition(kTop - 2, {6, 8, 0});  // below the first id: the table shifts
  prop.SetPosition(kTop - 9, {7, 8, 0});  // further below, with a gap
  prop.SetPosition(kTop - 2, {0, 9, 0});  // moved
  EXPECT_TRUE(prop.Reaches(kTop, kTop - 2));
  EXPECT_FALSE(prop.Reaches(kTop, kTop - 9));
  EXPECT_TRUE(prop.Reaches(kTop - 9, kTop - 2));
  ASSERT_NE(prop.GetPosition(kTop - 2), nullptr);
  EXPECT_EQ(prop.GetPosition(kTop - 2)->y, 9.0);
  for (NodeId unplaced : {NodeId{0}, NodeId{1}, kTop - 10, kTop - 1, kTop + 1}) {
    EXPECT_EQ(prop.GetPosition(unplaced), nullptr) << unplaced;
    EXPECT_FALSE(prop.Reaches(kTop, unplaced)) << unplaced;
  }
  std::vector<NodeId> candidates;
  ASSERT_TRUE(prop.ReachCandidates(kTop, &candidates));
  std::sort(candidates.begin(), candidates.end());
  EXPECT_EQ(candidates, (std::vector<NodeId>{kTop - 9, kTop - 2, kTop}));
}

// A hash map hands a layout's ids out in descending order; the table grows
// downward geometrically, so every id lands in its own slot.
TEST(PropagationTest, DiskPositionsSetInDescendingOrder) {
  DiskPropagation prop(1.5);
  for (NodeId id = 3000; id >= 1000; --id) {
    prop.SetPosition(id, {static_cast<double>(id), 0, 0});
  }
  EXPECT_EQ(prop.GetPosition(999), nullptr);
  EXPECT_EQ(prop.GetPosition(0), nullptr);
  EXPECT_EQ(prop.GetPosition(3001), nullptr);
  for (NodeId id = 1000; id <= 3000; ++id) {
    ASSERT_NE(prop.GetPosition(id), nullptr) << id;
    ASSERT_EQ(prop.GetPosition(id)->x, static_cast<double>(id)) << id;
  }
  EXPECT_TRUE(prop.Reaches(1000, 1001));
  EXPECT_FALSE(prop.Reaches(1000, 1002));
}

TEST(PropagationTest, DiskPositionsRefuseIdsBeyondTheSpan) {
  EXPECT_DEATH(
      {
        DiskPropagation prop(10.0);
        prop.SetPosition(1, {0, 0, 0});
        prop.SetPosition(1 + DiskPropagation::kMaxPositionSpan, {0, 0, 0});
      },
      "widen the positioned ids");
}

TEST(PropagationTest, FloorsBlockUnlessConfigured) {
  DiskPropagation prop(10.0);
  prop.SetPosition(1, {0, 0, 10});
  prop.SetPosition(2, {1, 0, 11});
  EXPECT_FALSE(prop.Reaches(1, 2));
  prop.set_inter_floor_range(5.0);
  EXPECT_TRUE(prop.Reaches(1, 2));
}

TEST(PropagationTest, AsymmetricLinkViaOverride) {
  // §6.4: "some experiments seemed to show asymmetric links".
  DiskPropagation prop(1.0);  // too short for any natural link
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {5, 0, 0});
  LinkQuality quality;
  quality.delivery_probability = 0.8;
  prop.SetLinkQuality(1, 2, quality);
  EXPECT_TRUE(prop.Reaches(1, 2));
  EXPECT_FALSE(prop.Reaches(2, 1));  // only one direction overridden
  EXPECT_DOUBLE_EQ(prop.DeliveryProbability(1, 2, 0), 0.8);
  EXPECT_DOUBLE_EQ(prop.DeliveryProbability(2, 1, 0), 0.0);
}

TEST(PropagationTest, BlockedLink) {
  DiskPropagation prop(10.0);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {1, 0, 0});
  EXPECT_TRUE(prop.Reaches(1, 2));
  prop.BlockLink(1, 2);
  EXPECT_FALSE(prop.Reaches(1, 2));
  EXPECT_TRUE(prop.Reaches(2, 1));
}

TEST(PropagationTest, IntermittentLinkWindows) {
  // §6.4: "some links provided only intermittent connectivity".
  LinkQuality quality;
  quality.delivery_probability = 0.9;
  quality.intermittent = true;
  quality.period = 10 * kSecond;
  quality.on_fraction = 0.5;
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 0), 0.9);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 4 * kSecond), 0.9);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 5 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 9 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(EvaluateLinkQuality(quality, 12 * kSecond), 0.9);
}

TEST(PropagationTest, ExplicitTopology) {
  ExplicitTopology topology;
  topology.AddLink(1, 2);
  EXPECT_TRUE(topology.Reaches(1, 2));
  EXPECT_FALSE(topology.Reaches(2, 1));
  topology.AddSymmetricLink(2, 3);
  EXPECT_TRUE(topology.Reaches(2, 3));
  EXPECT_TRUE(topology.Reaches(3, 2));
  topology.RemoveLink(1, 2);
  EXPECT_FALSE(topology.Reaches(1, 2));
}

// Every node a sender Reaches must be among its candidates, once.
void ExpectCandidatesCoverReaches(const PropagationModel& model, NodeId max_id) {
  for (NodeId from = 1; from <= max_id; ++from) {
    std::vector<NodeId> candidates;
    ASSERT_TRUE(model.ReachCandidates(from, &candidates)) << "from " << from;
    const std::set<NodeId> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), candidates.size()) << "duplicate candidate from " << from;
    for (NodeId to = 1; to <= max_id; ++to) {
      if (model.Reaches(from, to)) {
        EXPECT_TRUE(unique.contains(to)) << from << " reaches " << to;
      }
    }
  }
}

TEST(PropagationTest, DiskCandidatesCoverEveryReachableNode) {
  constexpr double kRange = 10.0;
  DiskPropagation prop(kRange);
  // Pairs exactly one range apart straddling cell borders, on both sides of
  // the origin, plus a random scatter over negative and positive coordinates.
  const Position fixed[] = {
      {0, 0, 0},      {kRange, 0, 0}, {-kRange, 0, 0}, {0, -kRange, 0},
      {6, 8, 0},      {-6, -8, 0},    {19.999, 0, 0},  {-20.001, 0, 0},
      {30, 30, 1},    {30, 37, 0},    {1e6, -1e6, 0},  {1e6 + 10, -1e6, 0},
  };
  NodeId id = 0;
  for (const Position& position : fixed) {
    prop.SetPosition(++id, position);
  }
  Rng rng(5);
  while (id < 80) {
    prop.SetPosition(++id, Position{rng.NextDoubleIn(-95, 95), rng.NextDoubleIn(-95, 95),
                                    static_cast<int>(rng.NextInt(0, 1))});
  }
  prop.SetLinkQuality(1, 12, LinkQuality{});  // far override
  prop.SetLinkQuality(1, 2, LinkQuality{});   // override inside the 3x3 cells
  ExpectCandidatesCoverReaches(prop, id);
  std::vector<NodeId> near_origin;
  ASSERT_TRUE(prop.ReachCandidates(1, &near_origin));
  EXPECT_LT(near_origin.size(), 40u);  // narrowed: 80 nodes over ~19x19 cells

  // A wider inter-floor range widens the cells, set after the positions.
  prop.set_inter_floor_range(25.0);
  EXPECT_TRUE(prop.Reaches(9, 10));
  ExpectCandidatesCoverReaches(prop, id);
  // Moving a node moves its cell.
  prop.SetPosition(3, Position{-70, 60, 0});
  ExpectCandidatesCoverReaches(prop, id);

  // A node without a position reaches only its overrides.
  prop.SetLinkQuality(200, 5, LinkQuality{});
  std::vector<NodeId> unplaced;
  ASSERT_TRUE(prop.ReachCandidates(200, &unplaced));
  EXPECT_EQ(unplaced, (std::vector<NodeId>{5}));
}

TEST(PropagationTest, DiskCandidatesDeclineUnindexablePositions) {
  DiskPropagation prop(1.0);
  prop.SetPosition(1, {0, 0, 0});
  prop.SetPosition(2, {0.5, 0, 0});
  std::vector<NodeId> candidates;
  EXPECT_TRUE(prop.ReachCandidates(1, &candidates));
  for (const Position far : {Position{1e12, 0, 0}, Position{0, std::nan(""), 0},
                             Position{-std::numeric_limits<double>::infinity(), 0, 0}}) {
    prop.SetPosition(3, far);
    candidates.clear();
    EXPECT_FALSE(prop.ReachCandidates(1, &candidates));  // Channel walks every endpoint
    EXPECT_TRUE(candidates.empty());
    EXPECT_TRUE(prop.Reaches(1, 2));
  }
  prop.SetPosition(3, {2, 0, 0});
  EXPECT_TRUE(prop.ReachCandidates(1, &candidates));
}

TEST(PropagationTest, ExplicitAndOverlayCandidatesAreTheListedLinks) {
  auto owned = std::make_unique<ExplicitTopology>();
  ExplicitTopology* topology = owned.get();
  topology->AddLink(1, 2);
  topology->AddLink(1, 4);
  topology->AddLink(2, 1);
  topology->AddLink(0xffffffff, 3);  // the largest id ends the key range
  FaultOverlayPropagation overlay(std::move(owned));
  overlay.BlackoutLink(1, 4);  // a superset may keep severed links
  std::vector<NodeId> candidates;
  ASSERT_TRUE(overlay.ReachCandidates(1, &candidates));
  EXPECT_EQ(candidates, (std::vector<NodeId>{2, 4}));
  candidates.clear();
  ASSERT_TRUE(topology->ReachCandidates(0xffffffff, &candidates));
  EXPECT_EQ(candidates, (std::vector<NodeId>{3}));
  candidates.clear();
  ASSERT_TRUE(topology->ReachCandidates(3, &candidates));
  EXPECT_TRUE(candidates.empty());
}

// ---- Fragmentation ----

TEST(FragmentationTest, SplitSizes) {
  Simulator sim;
  const std::vector<uint8_t> payload(112, 0x11);
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, payload, 27);
  ASSERT_EQ(fragments.size(), 5u);  // 112 = 4*27 + 4
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fragments[i].payload_len, 27u);
    EXPECT_EQ(fragments[i].body_offset, i * 27);
    EXPECT_EQ(fragments[i].index, i);
    EXPECT_EQ(fragments[i].count, 5);
  }
  EXPECT_EQ(fragments[4].payload_len, 4u);
  EXPECT_EQ(fragments[4].body_offset, 108u);
}

TEST(FragmentationTest, EmptyPayloadYieldsOneFragment) {
  Simulator sim;
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, {}, 27);
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].payload_len, 0u);
  EXPECT_EQ(fragments[0].WireSize(), Fragment::kHeaderBytes);
}

// Fragment::payload_len is 16 bits. A chunk over 65,535 bytes used to be
// narrowed into it, so a 70,000-byte fragment reported 4,464 payload bytes
// and airtime and MAC token charges were under-counted. The split caps the
// chunk at kMaxFragmentPayload instead.
TEST(FragmentationTest, CapsFragmentPayloadAtSixteenBits) {
  Simulator sim;
  const std::vector<uint8_t> payload(70000, 0x3c);
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, payload, 70000);
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0].payload_len, kMaxFragmentPayload);
  EXPECT_EQ(fragments[1].body_offset, kMaxFragmentPayload);
  EXPECT_EQ(fragments[0].WireSize() + fragments[1].WireSize(), 70000 + 2 * Fragment::kHeaderBytes);
}

TEST(FragmentationTest, ReassemblyInOrder) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(60, 0xcd);
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, payload, 27);
  for (size_t i = 0; i + 1 < fragments.size(); ++i) {
    EXPECT_EQ(reassembler.Add(fragments[i], 0), std::nullopt);
  }
  const auto completed = reassembler.Add(fragments.back(), 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
  EXPECT_EQ(completed->src, 1u);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(FragmentationTest, ReassemblyOutOfOrderAndDuplicates) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(100, 0xee);
  auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, payload, 27);
  ASSERT_EQ(fragments.size(), 4u);
  EXPECT_EQ(reassembler.Add(fragments[2], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);  // duplicate
  EXPECT_EQ(reassembler.Add(fragments[3], 0), std::nullopt);
  const auto completed = reassembler.Add(fragments[1], 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
}

TEST(FragmentationTest, MissingFragmentTimesOut) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, std::vector<uint8_t>(60, 1), 27);
  reassembler.Add(fragments[0], 0);
  reassembler.Add(fragments[1], 0);
  EXPECT_EQ(reassembler.pending(), 1u);
  reassembler.Purge(2 * kSecond);
  EXPECT_EQ(reassembler.pending(), 0u);
  // The late fragment alone cannot complete the message.
  EXPECT_EQ(reassembler.Add(fragments[2], 2 * kSecond), std::nullopt);
}

TEST(FragmentationTest, InterleavedSendersReassembleIndependently) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> pa(30, 0xaa);
  const std::vector<uint8_t> pb(30, 0xbb);
  const auto fa = SplitBytes(&sim.slot_pool(), 1, 9, 5, pa, 27);
  const auto fb = SplitBytes(&sim.slot_pool(), 2, 9, 5, pb, 27);
  ASSERT_EQ(fa.size(), 2u);
  EXPECT_EQ(reassembler.Add(fa[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fb[0], 0), std::nullopt);
  auto done_b = reassembler.Add(fb[1], 0);
  ASSERT_TRUE(done_b.has_value());
  EXPECT_EQ(BodyBytes(*done_b->body), pb);
  auto done_a = reassembler.Add(fa[1], 0);
  ASSERT_TRUE(done_a.has_value());
  EXPECT_EQ(BodyBytes(*done_a->body), pa);
}

TEST(FragmentationTest, SplitsTheLargestNumberableMessage) {
  Simulator sim;
  const std::vector<uint8_t> payload(kMaxFragments * 27, 0x5a);
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, payload, 27);
  ASSERT_EQ(fragments.size(), 65535u);
  EXPECT_EQ(fragments.front().count, 65535);
  EXPECT_EQ(fragments.back().index, 65534);
  EXPECT_EQ(fragments.back().count, 65535);
  Reassembler reassembler(kSecond);
  std::optional<Reassembler::Completed> completed;
  for (const Fragment& fragment : fragments) {
    ASSERT_FALSE(completed.has_value());
    completed = reassembler.Add(fragment, 0);
  }
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
  // One more fragment's worth no longer has a count to carry.
  const std::vector<uint8_t> one_more(payload.size() + 1);
  EXPECT_TRUE(SplitBytes(&sim.slot_pool(), 1, 2, 8, one_more, 27).empty());
}

// A fragment whose index is not below its count used to make Add restart
// collection from it forever, overflowing the stack. It is refused, and a
// partial under the same key is left to complete.
TEST(FragmentationTest, RefusesFragmentIndexOutsideItsCount) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(40, 0x21);
  const auto fragments = SplitBytes(&sim.slot_pool(), 1, 2, 7, payload, 27);
  ASSERT_EQ(fragments.size(), 2u);
  Fragment past_end = fragments[0];
  past_end.count = 1;
  past_end.index = 1;
  Fragment no_count = fragments[0];
  no_count.count = 0;
  no_count.index = 0;
  EXPECT_EQ(reassembler.Add(past_end, 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(no_count, 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 0u);

  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(past_end, 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(no_count, 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 1u);
  const auto completed = reassembler.Add(fragments[1], 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
}

TEST(FragmentationTest, InterleavedPartialsFromSeveralSenders) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  // Three senders, two of them with two messages each; sender 2's second
  // message reuses sender 1's sequence number.
  struct Stream {
    std::vector<uint8_t> payload;
    std::vector<Fragment> fragments;
  };
  std::vector<Stream> streams;
  const std::vector<std::pair<NodeId, uint32_t>> keys = {{1, 7}, {2, 3}, {3, 7}, {1, 8}, {2, 7}};
  for (size_t i = 0; i < keys.size(); ++i) {
    Stream stream;
    stream.payload.assign(27 * (2 + i % 3) - 5, static_cast<uint8_t>(0x10 + i));
    stream.fragments = SplitBytes(&sim.slot_pool(), keys[i].first, 9, keys[i].second,
                                  stream.payload, 27);
    streams.push_back(std::move(stream));
  }
  // Round-robin over the streams, last fragments first.
  std::vector<std::optional<std::vector<uint8_t>>> done(streams.size());
  for (size_t round = 0; round < 4; ++round) {
    for (size_t i = 0; i < streams.size(); ++i) {
      const auto& fragments = streams[i].fragments;
      if (round >= fragments.size()) {
        continue;
      }
      auto completed = reassembler.Add(fragments[fragments.size() - 1 - round], 0);
      ASSERT_EQ(completed.has_value(), round + 1 == fragments.size()) << "stream " << i;
      if (completed.has_value()) {
        EXPECT_EQ(completed->src, keys[i].first);
        done[i] = BodyBytes(*completed->body);
      }
    }
    if (round == 0) {
      EXPECT_EQ(reassembler.pending(), streams.size());
    }
  }
  for (size_t i = 0; i < streams.size(); ++i) {
    ASSERT_TRUE(done[i].has_value()) << "stream " << i;
    EXPECT_EQ(*done[i], streams[i].payload) << "stream " << i;
  }
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(FragmentationTest, DuplicateFragmentIsCountedOnce) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(70, 0x42);
  const auto fragments = SplitBytes(&sim.slot_pool(), 4, 2, 11, payload, 27);
  ASSERT_EQ(fragments.size(), 3u);
  // Four arrivals, but only two distinct fragments: nothing completes.
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[1], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[1], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(fragments[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 1u);
  const auto completed = reassembler.Add(fragments[2], 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), payload);
}

TEST(FragmentationTest, PurgeDropsOnlyPartialsOlderThanTheTimeout) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> payload(40, 0x77);
  const auto first = SplitBytes(&sim.slot_pool(), 1, 2, 1, payload, 27);
  const auto second = SplitBytes(&sim.slot_pool(), 1, 2, 2, payload, 27);
  reassembler.Add(first[0], 0);
  reassembler.Add(second[0], 1);
  // Exactly `timeout` old is not yet older than it.
  reassembler.Purge(kSecond);
  EXPECT_EQ(reassembler.pending(), 2u);
  reassembler.Purge(kSecond + 1);
  EXPECT_EQ(reassembler.pending(), 1u);
  // The survivor completes at its own boundary; the purged one cannot.
  EXPECT_TRUE(reassembler.Add(second[1], kSecond + 1).has_value());
  EXPECT_EQ(reassembler.Add(first[1], kSecond + 1), std::nullopt);
}

TEST(FragmentationTest, OneFragmentMessageSupersedesStalePartial) {
  Simulator sim;
  Reassembler reassembler(kSecond);
  const std::vector<uint8_t> stale_payload(60, 0x01);
  const std::vector<uint8_t> fresh_payload(10, 0x02);
  const auto stale = SplitBytes(&sim.slot_pool(), 5, 2, 9, stale_payload, 27);
  const auto fresh = SplitBytes(&sim.slot_pool(), 5, 2, 9, fresh_payload, 27);
  ASSERT_EQ(stale.size(), 3u);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(reassembler.Add(stale[0], 0), std::nullopt);
  EXPECT_EQ(reassembler.Add(stale[1], 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 1u);
  const auto completed = reassembler.Add(fresh[0], 0);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(BodyBytes(*completed->body), fresh_payload);
  EXPECT_EQ(reassembler.pending(), 0u);
  // The stale partial is gone: its last fragment starts a new one.
  EXPECT_EQ(reassembler.Add(stale[2], 0), std::nullopt);
  EXPECT_EQ(reassembler.pending(), 1u);
}

// Reassembly as its header states it, over ordered maps and sets: refuse a
// fragment whose index is not below its count; purge partials older than
// the timeout; restart a partial whose count changed; complete a
// one-fragment message at once; complete a partial when every index has
// arrived.
class ReferenceReassembler {
 public:
  struct Done {
    NodeId src;
    NodeId dst;
    const WireBody* body;
    bool operator==(const Done&) const = default;
  };

  explicit ReferenceReassembler(SimDuration timeout) : timeout_(timeout) {}

  std::optional<Done> Add(const Fragment& fragment, SimTime now) {
    if (fragment.index >= fragment.count) {
      return std::nullopt;
    }
    std::erase_if(partials_, [&](const auto& item) {
      return now - item.second.first_seen > timeout_;
    });
    const auto key = std::make_pair(fragment.src, fragment.message_seq);
    auto it = partials_.find(key);
    if (it != partials_.end() && it->second.count != fragment.count) {
      partials_.erase(it);
      it = partials_.end();
    }
    if (fragment.count == 1) {
      return Done{fragment.src, fragment.dst, fragment.body.get()};
    }
    if (it == partials_.end()) {
      it = partials_.emplace(key, Partial{now, fragment.dst, fragment.count, {},
                                          fragment.body.get()})
               .first;
    }
    Partial& partial = it->second;
    partial.have.insert(fragment.index);
    if (partial.have.size() < partial.count) {
      return std::nullopt;
    }
    const Done done{fragment.src, partial.dst, partial.body};
    partials_.erase(it);
    return done;
  }

  size_t pending() const { return partials_.size(); }

 private:
  struct Partial {
    SimTime first_seen;
    NodeId dst;
    uint16_t count;
    std::set<uint16_t> have;
    const WireBody* body;
  };
  SimDuration timeout_;
  std::map<std::pair<NodeId, uint32_t>, Partial> partials_;
};

TEST(FragmentationTest, MatchesReferenceModelOverRandomStreams) {
  constexpr SimDuration kTimeout = kSecond;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Simulator sim(seed);
    Rng rng(seed);
    Reassembler reassembler(kTimeout);
    ReferenceReassembler reference(kTimeout);
    // Messages in flight. Few senders and sequence numbers make keys repeat,
    // so a new message can take over a live key with a different count.
    std::vector<Fragment> messages;
    auto start_message = [&](uint16_t count) {
      Fragment message;
      message.src = static_cast<NodeId>(rng.NextInt(1, 4));
      message.dst = static_cast<NodeId>(rng.NextInt(1, 4));
      message.message_seq = static_cast<uint32_t>(rng.NextInt(0, 3));
      message.count = count;
      message.body = ByteBody::Make(&sim.slot_pool(), std::vector<uint8_t>(1, 0));
      messages.push_back(std::move(message));
    };
    // Adds to both; true when the fragment completed a message.
    auto add = [&](const Fragment& fragment, SimTime now) {
      const std::optional<Reassembler::Completed> got = reassembler.Add(fragment, now);
      const std::optional<ReferenceReassembler::Done> want = reference.Add(fragment, now);
      EXPECT_EQ(got.has_value(), want.has_value());
      if (got.has_value() && want.has_value()) {
        EXPECT_EQ((ReferenceReassembler::Done{got->src, got->dst, got->body.get()}), *want);
      }
      EXPECT_EQ(reassembler.pending(), reference.pending());
      return got.has_value();
    };
    SimTime now = 0;
    for (int step = 0; step < 6000; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const int64_t op = rng.NextInt(0, 99);
      if (op < 8 || messages.empty()) {
        start_message(op == 0 ? uint16_t{65535} : static_cast<uint16_t>(rng.NextInt(1, 70)));
        continue;
      }
      if (op < 10) {
        now += rng.NextInt(kTimeout / 4, 2 * kTimeout);  // partials age out
        continue;
      }
      now += rng.NextInt(0, kTimeout / 200);
      Fragment fragment = messages[rng.NextInt(0, static_cast<int64_t>(messages.size()) - 1)];
      // Index mostly among a small message's own; sometimes at or past its
      // count, which must be refused.
      const int64_t top = std::min<int64_t>(fragment.count, 70);
      fragment.index = static_cast<uint16_t>(
          op < 13 ? rng.NextInt(fragment.count, fragment.count + 2) : rng.NextInt(0, top - 1));
      if (op == 13) {
        fragment.count = 0;
        fragment.index = 0;
      }
      add(fragment, now);
      if (HasFailure()) {
        return;
      }
    }
    // A message of the largest count, in shuffled order with duplicates and
    // other senders' traffic between, completes exactly once, at its last
    // missing index.
    start_message(65535);
    Fragment wide = messages.back();
    std::vector<uint16_t> order(65535);
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint16_t>(i);
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i = 0; i < order.size(); ++i) {
      wide.index = order[i];
      ASSERT_EQ(add(wide, now), i + 1 == order.size()) << "fragment " << i;
      if (i % 97 == 0) {
        add(wide, now);  // a duplicate
        Fragment other = messages[rng.NextInt(0, static_cast<int64_t>(messages.size()) - 2)];
        if (other.src != wide.src || other.message_seq != wide.message_seq) {
          other.index = static_cast<uint16_t>(rng.NextInt(0, std::min<int>(other.count, 70) - 1));
          add(other, now);
        }
      }
    }
  }
}

// ---- Radio / channel / MAC end-to-end ----

TEST(RadioTest, DeliversAcrossOneHop) {
  Simulator sim(1);
  auto channel = MakeLineChannel(&sim, 2);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  std::vector<uint8_t> received;
  NodeId from = 0;
  b.SetReceiveCallback([&](NodeId src, const WireBody& body) {
    from = src;
    received = BodyBytes(body);
  });
  const std::vector<uint8_t> payload(112, 0x42);
  EXPECT_TRUE(a.SendMessage(kBroadcastId, payload));
  sim.RunUntil(kSecond);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(from, 1u);
  EXPECT_EQ(a.stats().messages_sent, 1u);
  EXPECT_EQ(a.stats().fragments_sent, 5u);
  EXPECT_EQ(b.stats().fragments_received, 5u);
  EXPECT_EQ(b.stats().messages_received, 1u);
  EXPECT_EQ(b.stats().message_bytes_received, 112u);
}

// A zero-copy body of `size` zero bytes that lives on the test's stack.
class ZeroBody final : public WireBody {
 public:
  explicit ZeroBody(size_t size) : size_(size) {}

  size_t wire_size() const override { return size_; }
  void AppendBytes(std::vector<uint8_t>* out) const override { out->resize(out->size() + size_); }

 private:
  void Recycle() override {}

  size_t size_;
};

// Fragment::count is 16 bits. A message of 65,536 fragments used to wrap the
// count to 0, which sent the receiver's reassembler into unbounded recursion;
// one of 65,537 wrapped it to 1 and "completed" after its first fragment. The
// radio refuses both, through SendMessage and SendBody alike.
TEST(RadioTest, RefusesMessageOfMoreThan65535Fragments) {
  for (const size_t fragments : {size_t{65536}, size_t{65537}}) {
    for (const bool send_body : {false, true}) {
      Simulator sim(8);
      auto channel = MakeLineChannel(&sim, 2);
      Radio a(&sim, channel.get(), 1, FastRadio());
      Radio b(&sim, channel.get(), 2, FastRadio());
      int received = 0;
      b.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
      const size_t bytes = fragments * 27;
      ZeroBody body(bytes);
      const bool sent = send_body ? a.SendBody(kBroadcastId, BodyRef(&body))
                                  : a.SendMessage(kBroadcastId, std::vector<uint8_t>(bytes, 1));
      sim.RunUntil(kSecond);
      SCOPED_TRACE(testing::Message() << fragments << " fragments, send_body=" << send_body);
      EXPECT_FALSE(sent);
      EXPECT_EQ(received, 0);
      EXPECT_EQ(b.stats().fragments_received, 0u);
      EXPECT_EQ(a.stats().messages_refused, 1u);
      EXPECT_EQ(a.stats().messages_sent, 0u);
      EXPECT_EQ(a.stats().fragments_sent, 0u);
    }
  }
}

TEST(RadioTest, UnicastFilteredButOverheard) {
  Simulator sim(2);
  auto channel = MakeCliqueChannel(&sim, 3);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  Radio c(&sim, channel.get(), 3, FastRadio());
  int b_received = 0;
  int c_received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++b_received; });
  c.SetReceiveCallback([&](NodeId, const WireBody&) { ++c_received; });
  a.SendMessage(2, std::vector<uint8_t>(40, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_received, 0);
  // C still paid receive time for the overheard frames.
  EXPECT_GT(c.stats().time_receiving, 0);
}

TEST(RadioTest, NoDeliveryOutOfRange) {
  Simulator sim(3);
  auto channel = MakeLineChannel(&sim, 3);  // 1-2-3; 1 cannot reach 3
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  Radio c(&sim, channel.get(), 3, FastRadio());
  int c_received = 0;
  c.SetReceiveCallback([&](NodeId, const WireBody&) { ++c_received; });
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(c_received, 0);
}

TEST(RadioTest, HiddenTerminalCollision) {
  // 1 and 3 cannot hear each other but both reach 2: simultaneous
  // transmissions collide at 2 (§6.1: "hidden terminals are endemic").
  Simulator sim(4);
  auto channel = MakeLineChannel(&sim, 3);
  RadioConfig config = FastRadio();
  config.mac.initial_jitter = 0;  // force exact overlap
  Radio a(&sim, channel.get(), 1, config);
  Radio b(&sim, channel.get(), 2, config);
  Radio c(&sim, channel.get(), 3, config);
  int b_received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++b_received; });
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  c.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 2));
  sim.RunUntil(kSecond);
  EXPECT_EQ(b_received, 0);
  EXPECT_GE(channel->stats().collisions, 2u);
}

TEST(RadioTest, CarrierSenseAvoidsCollisionWhenInRange) {
  // When both senders hear each other, CSMA serializes them.
  Simulator sim(5);
  auto channel = MakeCliqueChannel(&sim, 3);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  Radio c(&sim, channel.get(), 3, FastRadio());
  int received = 0;
  c.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
    b.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 2));
  }
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(received, 20);
}

TEST(RadioTest, LossyLinkDropsWholeMessages) {
  // Per-fragment loss amplifies into message loss (§6.1): with 5 fragments
  // at 70% fragment delivery, message delivery ≈ 0.7^5 ≈ 17%.
  Simulator sim(6);
  auto channel = MakeLineChannel(&sim, 2, 0.7);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  int received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  const int sent = 300;
  for (int i = 0; i < sent; ++i) {
    sim.After(i * 20 * kMillisecond,
              [&a] { a.SendMessage(kBroadcastId, std::vector<uint8_t>(112, 3)); });
  }
  sim.RunUntil(20 * kSecond);
  const double rate = static_cast<double>(received) / sent;
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.35);
}

TEST(RadioTest, DeadRadioNeitherSendsNorReceives) {
  Simulator sim(7);
  auto channel = MakeLineChannel(&sim, 2);
  Radio a(&sim, channel.get(), 1, FastRadio());
  Radio b(&sim, channel.get(), 2, FastRadio());
  int received = 0;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  b.Kill();
  a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  sim.RunUntil(kSecond);
  EXPECT_EQ(received, 0);
  a.Kill();
  EXPECT_FALSE(a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1)));
  b.Revive();
  a.Revive();
  EXPECT_TRUE(a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1)));
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(received, 1);
}

namespace {

// Bare channel endpoint for driving Channel::Transmit directly.
class RecordingEndpoint : public ChannelEndpoint {
 public:
  explicit RecordingEndpoint(NodeId id, bool transmitting = false)
      : id_(id), transmitting_(transmitting) {}

  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return true; }
  bool IsTransmitting() const override { return transmitting_; }
  void OnFrameDelivered(const Fragment& fragment, SimDuration airtime) override {
    (void)fragment;
    (void)airtime;
    ++delivered_;
    if (on_delivered_) {
      on_delivered_();
    }
  }

  int delivered() const { return delivered_; }
  // Runs after every delivery, from inside the channel's delivery loop.
  void set_on_delivered(std::function<void()> hook) { on_delivered_ = std::move(hook); }

 private:
  NodeId id_;
  bool transmitting_;
  int delivered_ = 0;
  std::function<void()> on_delivered_;
};

constexpr SimDuration kFrameAirtime = 10 * kMillisecond;

Fragment TestFrame(NodeId src) {
  Fragment frame;
  frame.src = src;
  frame.payload_len = 20;
  return frame;
}

// Attaches a RecordingEndpoint per id and drives one frame at a time, so no
// two frames overlap and every outcome is a pure reachability question.
class FrameDriver {
 public:
  FrameDriver(Simulator* sim, Channel* channel, std::vector<NodeId> ids)
      : sim_(sim), channel_(channel), ids_(std::move(ids)) {
    for (NodeId id : ids_) {
      Attach(id);
    }
  }

  // Attaches a fresh endpoint under `id` (a reattach gets a new object).
  void Attach(NodeId id) {
    endpoints_.push_back(std::make_unique<RecordingEndpoint>(id));
    channel_->Attach(endpoints_.back().get());
  }

  // The latest endpoint attached under `id`.
  const RecordingEndpoint& endpoint(NodeId id) const {
    auto it = std::find_if(endpoints_.rbegin(), endpoints_.rend(),
                           [id](const auto& endpoint) { return endpoint->node_id() == id; });
    return **it;
  }

  // Transmits one frame from `sender`; while it is on the air, records which
  // other known ids sense carrier and which the channel attempted to reach.
  // Returns the ids that decoded it.
  std::set<NodeId> Send(NodeId sender) {
    std::vector<int> before;
    before.reserve(endpoints_.size());
    for (const auto& endpoint : endpoints_) {
      before.push_back(endpoint->delivered());
    }
    std::vector<uint64_t> attempted_before;
    for (NodeId id : ids_) {
      attempted_before.push_back(channel_->NodeStats(id).receptions_attempted);
    }
    channel_->Transmit(endpoint(sender), TestFrame(sender), kFrameAirtime);
    sensed_.clear();
    attempted_.clear();
    for (size_t i = 0; i < ids_.size(); ++i) {
      const NodeId id = ids_[i];
      if (id != sender && channel_->CarrierBusyAt(id)) {
        sensed_.insert(id);
      }
      if (channel_->NodeStats(id).receptions_attempted > attempted_before[i]) {
        attempted_.insert(id);
      }
    }
    sim_->RunUntil(sim_->now() + 2 * kFrameAirtime);
    std::set<NodeId> delivered;
    for (size_t i = 0; i < before.size(); ++i) {
      if (endpoints_[i]->delivered() > before[i]) {
        delivered.insert(endpoints_[i]->node_id());
      }
    }
    return delivered;
  }

  // Who sensed carrier during the last Send.
  const std::set<NodeId>& sensed() const { return sensed_; }
  // Whom the last Send was put on the air for, decoded or not. A receiver
  // left on a stale list shows up here even when the model's zero delivery
  // probability keeps it from decoding.
  const std::set<NodeId>& attempted() const { return attempted_; }

 private:
  Simulator* sim_;
  Channel* channel_;
  std::vector<NodeId> ids_;
  std::vector<std::unique_ptr<RecordingEndpoint>> endpoints_;
  std::set<NodeId> sensed_;
  std::set<NodeId> attempted_;
};

// MakeCliqueChannel's clique of ids 1..count, behind a fault overlay.
std::unique_ptr<Channel> MakeOverlayCliqueChannel(Simulator* sim, size_t count,
                                                  FaultOverlayPropagation** overlay) {
  auto topology = std::make_unique<ExplicitTopology>();
  for (NodeId a = 1; a <= count; ++a) {
    for (NodeId b = a + 1; b <= count; ++b) {
      topology->AddSymmetricLink(a, b);
    }
  }
  auto wrapped = std::make_unique<FaultOverlayPropagation>(std::move(topology));
  *overlay = wrapped.get();
  return std::make_unique<Channel>(sim, std::move(wrapped));
}

// Nodes 1 and 2 in range of each other, 3 out of range of both.
std::unique_ptr<Channel> MakeDiskChannel(Simulator* sim, DiskPropagation** disk) {
  auto propagation = std::make_unique<DiskPropagation>(10.0);
  propagation->SetPosition(1, {0, 0, 0});
  propagation->SetPosition(2, {8, 0, 0});
  propagation->SetPosition(3, {30, 0, 0});
  *disk = propagation.get();
  return std::make_unique<Channel>(sim, std::move(propagation));
}

using Ids = std::set<NodeId>;

}  // namespace

TEST(ChannelTest, DetachMidFlightScrubsReceptions) {
  // Regression: Detach only removed the endpoint, leaving the node's
  // Reception records inside other senders' in-flight transmissions. When a
  // new endpoint re-attached under the same id before those resolved, the
  // stale records delivered frames to it and — with two overlapping
  // transmissions — charged it phantom collisions.
  Simulator sim(11);
  auto channel = MakeCliqueChannel(&sim, 3);
  RecordingEndpoint tx_a(1, /*transmitting=*/true);
  RecordingEndpoint tx_b(2, /*transmitting=*/true);
  RecordingEndpoint receiver(3);
  channel->Attach(&tx_a);
  channel->Attach(&tx_b);
  channel->Attach(&receiver);

  // Two transmissions overlap at node 3 for their whole duration.
  Fragment frame_a;
  frame_a.src = 1;
  frame_a.payload_len = 20;
  Fragment frame_b;
  frame_b.src = 2;
  frame_b.payload_len = 20;
  sim.After(0, [&] { channel->Transmit(tx_a, frame_a, 10 * kMillisecond); });
  sim.After(kMillisecond, [&] { channel->Transmit(tx_b, frame_b, 10 * kMillisecond); });

  // Node 3 detaches mid-flight and re-attaches (fresh endpoint, same id)
  // before either transmission ends.
  RecordingEndpoint reborn(3);
  sim.After(2 * kMillisecond, [&] {
    channel->Detach(3);
    channel->Attach(&reborn);
  });
  sim.RunUntil(kSecond);

  // The scrubbed receptions resolve to nothing: no delivery to either
  // endpoint, and no collision charged for frames the node was not attached
  // to hear. (Senders 1 and 2 still collide with each other's frames.)
  EXPECT_EQ(receiver.delivered(), 0);
  EXPECT_EQ(reborn.delivered(), 0);
  EXPECT_EQ(channel->stats().collisions, 2u);  // only at nodes 1 and 2
  EXPECT_EQ(channel->stats().deliveries, 0u);
}

TEST(ChannelTest, DetachedReceiverStopsMidFlightCleanly) {
  // Detach without re-attach: the in-flight reception simply vanishes.
  Simulator sim(12);
  auto channel = MakeLineChannel(&sim, 2);
  RecordingEndpoint sender(1);
  RecordingEndpoint receiver(2);
  channel->Attach(&sender);
  channel->Attach(&receiver);

  Fragment frame;
  frame.src = 1;
  frame.payload_len = 20;
  sim.After(0, [&] { channel->Transmit(sender, frame, 10 * kMillisecond); });
  sim.After(5 * kMillisecond, [&] { channel->Detach(2); });
  sim.RunUntil(kSecond);

  EXPECT_EQ(receiver.delivered(), 0);
  EXPECT_EQ(channel->stats().collisions, 0u);
  EXPECT_EQ(channel->stats().propagation_losses, 0u);
  EXPECT_EQ(channel->stats().deliveries, 0u);
}

// ---- Receiver-list invalidation ----
//
// The channel caches each sender's receivers. Every test below first sends
// traffic so the lists exist, then changes what Reaches answers (or who is
// attached) and checks both the next frame's receivers and carrier sense. A
// mutator that forgot to move the reach version or the attach epoch would
// leave the old list in place and fail here.

TEST(ChannelTest, OverlayBlackoutAndRestoreRebuildReceivers) {
  Simulator sim(21);
  FaultOverlayPropagation* overlay = nullptr;
  auto channel = MakeOverlayCliqueChannel(&sim, 3, &overlay);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3});
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));

  overlay->BlackoutLink(1, 2);
  EXPECT_EQ(driver.Send(1), (Ids{3}));
  EXPECT_EQ(driver.attempted(), (Ids{3}));
  EXPECT_EQ(driver.sensed(), (Ids{3}));
  EXPECT_EQ(driver.Send(2), (Ids{1, 3}));  // only 1 -> 2 is blacked out

  overlay->RestoreLink(1, 2);
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 3}));
}

TEST(ChannelTest, OverlayPartitionAndHealRebuildReceivers) {
  Simulator sim(22);
  FaultOverlayPropagation* overlay = nullptr;
  auto channel = MakeOverlayCliqueChannel(&sim, 4, &overlay);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3, 4});
  EXPECT_EQ(driver.Send(1), (Ids{2, 3, 4}));
  EXPECT_EQ(driver.Send(3), (Ids{1, 2, 4}));

  overlay->Partition({1, 2}, {3});
  EXPECT_EQ(driver.Send(1), (Ids{2, 4}));
  EXPECT_EQ(driver.attempted(), (Ids{2, 4}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 4}));
  EXPECT_EQ(driver.Send(3), (Ids{4}));
  EXPECT_EQ(driver.attempted(), (Ids{4}));
  EXPECT_EQ(driver.sensed(), (Ids{4}));

  overlay->Heal();
  EXPECT_EQ(driver.Send(1), (Ids{2, 3, 4}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 3, 4}));
  EXPECT_EQ(driver.Send(3), (Ids{1, 2, 4}));
}

TEST(ChannelTest, OverlayDegradeKeepsReceiversButDropsFrames) {
  // A degrade never changes Reaches, so the receiver stays listed and still
  // senses carrier; only the frame is lost.
  Simulator sim(23);
  FaultOverlayPropagation* overlay = nullptr;
  auto channel = MakeOverlayCliqueChannel(&sim, 3, &overlay);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3});
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
  const uint64_t version = overlay->reach_version();

  overlay->DegradeLink(1, 2, 0.0);
  EXPECT_EQ(overlay->reach_version(), version);
  EXPECT_EQ(driver.Send(1), (Ids{3}));
  EXPECT_EQ(driver.attempted(), (Ids{2, 3}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 3}));
  EXPECT_EQ(channel->stats().propagation_losses, 1u);
}

TEST(ChannelTest, LinkOverrideAddsOutOfRangeReceiver) {
  Simulator sim(24);
  DiskPropagation* disk = nullptr;
  auto channel = MakeDiskChannel(&sim, &disk);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3});
  EXPECT_EQ(driver.Send(1), (Ids{2}));
  EXPECT_EQ(driver.sensed(), (Ids{2}));

  disk->SetLinkQuality(1, 3, LinkQuality{});
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 3}));
  EXPECT_EQ(driver.Send(3), Ids{});  // the override is one-way
}

TEST(ChannelTest, BlockLinkRemovesReceiver) {
  Simulator sim(25);
  DiskPropagation* disk = nullptr;
  auto channel = MakeDiskChannel(&sim, &disk);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3});
  EXPECT_EQ(driver.Send(1), (Ids{2}));

  disk->BlockLink(1, 2);
  EXPECT_EQ(driver.Send(1), Ids{});
  EXPECT_EQ(driver.attempted(), Ids{});
  EXPECT_EQ(driver.sensed(), Ids{});
  EXPECT_EQ(driver.Send(2), (Ids{1}));
}

TEST(ChannelTest, PositionAndFloorChangesRebuildReceivers) {
  Simulator sim(26);
  DiskPropagation* disk = nullptr;
  auto channel = MakeDiskChannel(&sim, &disk);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3});
  EXPECT_EQ(driver.Send(1), (Ids{2}));

  disk->SetPosition(3, {0, 9, 0});  // next to 1
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
  disk->SetPosition(3, {0, 9, 1});  // one floor up
  EXPECT_EQ(driver.Send(1), (Ids{2}));
  EXPECT_EQ(driver.attempted(), (Ids{2}));
  EXPECT_EQ(driver.sensed(), (Ids{2}));
  disk->set_inter_floor_range(10.0);
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 3}));
}

TEST(ChannelTest, ExplicitTopologyAndShadowingMutatorsRebuildReceivers) {
  {
    Simulator sim(27);
    auto topology = std::make_unique<ExplicitTopology>();
    ExplicitTopology* links = topology.get();
    links->AddLink(1, 2);
    Channel channel(&sim, std::move(topology));
    FrameDriver driver(&sim, &channel, {1, 2, 3});
    EXPECT_EQ(driver.Send(1), (Ids{2}));
    links->AddLink(1, 3);
    EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
    links->RemoveLink(1, 2);
    EXPECT_EQ(driver.Send(1), (Ids{3}));
    EXPECT_EQ(driver.attempted(), (Ids{3}));
    EXPECT_EQ(driver.sensed(), (Ids{3}));
  }
  {
    // Zero shadowing: a hard disk at reference_range (margin checks only, so
    // carrier sense is the deterministic observable).
    Simulator sim(28);
    ShadowingConfig config;
    config.shadowing_sigma_db = 0.0;
    auto shadowing = std::make_unique<ShadowingPropagation>(config, 7);
    ShadowingPropagation* model = shadowing.get();
    model->SetPosition(1, {0, 0, 0});
    model->SetPosition(2, {5, 0, 0});
    Channel channel(&sim, std::move(shadowing));
    FrameDriver driver(&sim, &channel, {1, 2});
    (void)driver.Send(1);
    EXPECT_EQ(driver.attempted(), (Ids{2}));
    EXPECT_EQ(driver.sensed(), (Ids{2}));
    model->SetPosition(2, {500, 0, 0});
    EXPECT_EQ(driver.Send(1), Ids{});
    EXPECT_EQ(driver.attempted(), Ids{});
    EXPECT_EQ(driver.sensed(), Ids{});
  }
}

TEST(ChannelTest, DetachAndReattachRebuildReceivers) {
  Simulator sim(29);
  auto channel = MakeCliqueChannel(&sim, 3);
  FrameDriver driver(&sim, channel.get(), {1, 2, 3});
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));

  channel->Detach(2);
  EXPECT_EQ(driver.Send(1), (Ids{3}));
  EXPECT_EQ(driver.attempted(), (Ids{3}));
  // A detached node still senses carrier: the model says energy reaches it.
  EXPECT_EQ(driver.sensed(), (Ids{2, 3}));

  driver.Attach(2);  // a fresh endpoint under the same id
  EXPECT_EQ(driver.Send(1), (Ids{2, 3}));
  EXPECT_EQ(driver.sensed(), (Ids{2, 3}));
}

// ---- Receiver lists vs a brute-force Reaches scan ----

// Forwards every query and counts Reaches calls, like a decorator that
// counts or times calls. Unless `forward_candidates`, it does not forward
// ReachCandidates: Channel must then fall back to probing every endpoint and
// still produce the same receivers in the same order.
class PassThroughPropagation : public PropagationModel {
 public:
  explicit PassThroughPropagation(std::unique_ptr<PropagationModel> inner,
                                  bool forward_candidates = false)
      : inner_(std::move(inner)), forward_candidates_(forward_candidates) {}
  bool Reaches(NodeId from, NodeId to) const override {
    ++reaches_;
    return inner_->Reaches(from, to);
  }
  double DeliveryProbability(NodeId from, NodeId to, SimTime now) const override {
    return inner_->DeliveryProbability(from, to, now);
  }
  uint64_t reach_version() const override { return inner_->reach_version(); }
  bool ReachCandidates(NodeId from, std::vector<NodeId>* out) const override {
    return forward_candidates_ && inner_->ReachCandidates(from, out);
  }

  uint64_t reaches() const { return reaches_; }

 private:
  std::unique_ptr<PropagationModel> inner_;
  bool forward_candidates_;
  mutable uint64_t reaches_ = 0;
};

// A list build probes only the candidates the model names; without them it
// probes every attached endpoint. Either way the receivers are the same.
TEST(ChannelTest, CandidateListBuildProbesOnlyNearbyEndpoints) {
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= 100; ++id) {
    ids.push_back(id);
  }
  std::map<bool, std::set<NodeId>> delivered;
  std::map<bool, uint64_t> probes;
  for (bool forward : {true, false}) {
    SCOPED_TRACE(testing::Message() << "forward " << forward);
    Simulator sim(43);
    auto disk = std::make_unique<DiskPropagation>(15.0);
    for (NodeId id : ids) {
      disk->SetPosition(id, Position{-500.0 + 10.0 * id, 0, 0});  // a line, 10 apart
    }
    auto owned = std::make_unique<PassThroughPropagation>(std::move(disk), forward);
    const PassThroughPropagation* counting = owned.get();
    Channel channel(&sim, std::move(owned));
    FrameDriver driver(&sim, &channel, ids);
    const uint64_t before = counting->reaches();
    channel.Transmit(driver.endpoint(50), TestFrame(50), kFrameAirtime);  // builds 50's list
    probes[forward] = counting->reaches() - before;
    sim.RunUntil(sim.now() + 2 * kFrameAirtime);
    delivered[forward] = driver.Send(50);
  }
  EXPECT_EQ(delivered[true], (std::set<NodeId>{49, 51}));
  EXPECT_EQ(delivered[true], delivered[false]);
  EXPECT_EQ(probes[false], 99u);  // every other endpoint
  EXPECT_LE(probes[true], 6u);    // the 3x3 cells around node 50 hold a few
}

// What one differential run observed: every delivery in order, and the
// channel's counters.
struct DifferentialOutcome {
  std::vector<NodeId> deliveries;
  ChannelStats stats;
};

// Random topology mutations, detach/attach, local frames (some with a
// mid-flight mutation or detach) and remote frames. Every frame's receivers,
// every carrier-sense answer and every remote delivery order must match a
// direct scan of the model over the attached endpoints. All link
// probabilities are 0 or 1, so delivery is exactly predictable.
DifferentialOutcome RunReceiverDifferential(uint64_t seed, std::unique_ptr<PropagationModel> owned,
                                            const std::function<void(Rng&)>& mutate) {
  constexpr NodeId kLocal = 10;  // ids 1..10 may attach
  constexpr NodeId kAll = 12;    // 11 and 12 only send remote frames
  Simulator sim(seed);
  PropagationModel* model = owned.get();
  Channel channel(&sim, std::move(owned));
  DifferentialOutcome outcome;
  std::vector<std::unique_ptr<RecordingEndpoint>> endpoints;
  std::map<NodeId, RecordingEndpoint*> attached;
  std::vector<NodeId> log;
  auto attach = [&](NodeId id) {
    endpoints.push_back(std::make_unique<RecordingEndpoint>(id));
    endpoints.back()->set_on_delivered([&log, &outcome, id] {
      log.push_back(id);
      outcome.deliveries.push_back(id);
    });
    channel.Attach(endpoints.back().get());
    attached[id] = endpoints.back().get();
  };
  auto detach = [&](NodeId id) {
    channel.Detach(id);
    attached.erase(id);
  };
  // Ascending, like the map.
  auto reached = [&](NodeId sender) {
    std::vector<NodeId> ids;
    for (const auto& [id, endpoint] : attached) {
      if (id != sender && model->Reaches(sender, id)) {
        ids.push_back(id);
      }
    }
    return ids;
  };
  for (NodeId id = 1; id <= kLocal; ++id) {
    attach(id);
  }

  Rng rng(seed);
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    // Mostly frames, so lists get reused between changes.
    const int64_t op = rng.NextInt(0, 9);
    if (op < 2) {
      mutate(rng);
    } else if (op == 2) {
      const NodeId id = static_cast<NodeId>(rng.NextInt(1, kLocal));
      if (attached.contains(id)) {
        detach(id);
      } else {
        attach(id);
      }
    } else if (op == 3) {
      const NodeId sender = static_cast<NodeId>(rng.NextInt(kLocal + 1, kAll));
      log.clear();
      const uint64_t attempted_before = channel.stats().receptions_attempted;
      channel.DeliverRemote(sender, TestFrame(sender), kFrameAirtime);
      // A stale entry would be attempted and lost, not decoded: count it.
      EXPECT_EQ(channel.stats().receptions_attempted - attempted_before, reached(sender).size());
      std::vector<NodeId> expected;
      for (NodeId id : reached(sender)) {
        if (model->DeliveryProbability(sender, id, sim.now()) > 0.5) {
          expected.push_back(id);
        }
      }
      EXPECT_EQ(log, expected);
    } else if (!attached.empty()) {
      auto pick = attached.begin();
      std::advance(pick, rng.NextInt(0, static_cast<int64_t>(attached.size()) - 1));
      const NodeId sender = pick->first;
      const SimTime start = sim.now();
      std::vector<NodeId> candidates = reached(sender);
      log.clear();
      const uint64_t attempted_before = channel.stats().receptions_attempted;
      channel.Transmit(*pick->second, TestFrame(sender), kFrameAirtime);
      EXPECT_EQ(channel.stats().receptions_attempted - attempted_before, candidates.size());
      if (rng.NextBool(0.3)) {
        if (rng.NextBool(0.5)) {
          mutate(rng);
        } else {
          auto victim = attached.begin();
          std::advance(victim, rng.NextInt(0, static_cast<int64_t>(attached.size()) - 1));
          detach(victim->first);  // may be the sender itself
        }
      }
      for (NodeId id = 1; id <= kAll; ++id) {
        EXPECT_EQ(channel.CarrierBusyAt(id), id == sender || model->Reaches(sender, id))
            << "carrier at " << id << " from " << sender;
      }
      sim.RunUntil(start + 2 * kFrameAirtime);
      std::set<NodeId> expected;
      for (NodeId id : candidates) {
        if (attached.contains(id) && model->DeliveryProbability(sender, id, start) > 0.5) {
          expected.insert(id);
        }
      }
      EXPECT_EQ(std::set<NodeId>(log.begin(), log.end()), expected) << "frame from " << sender;
      EXPECT_EQ(log.size(), expected.size());
    }
  }
  // Not vacuous: plenty of frames found receivers.
  EXPECT_GT(channel.stats().deliveries, 50u);
  for (const auto& endpoint : endpoints) {
    endpoint->set_on_delivered(nullptr);
  }
  outcome.stats = channel.stats();
  return outcome;
}

// A model and the mutations the differential may apply to it.
struct DifferentialModel {
  std::unique_ptr<PropagationModel> model;
  std::function<void(Rng&)> mutate;
};

// Runs the differential on a fresh model from `make`, then on another behind
// PassThroughPropagation: the candidate-built lists and the full walk must
// deliver the same frames to the same nodes in the same order, with equal
// counters.
void RunCandidateAndFullWalk(uint64_t seed, const std::function<DifferentialModel()>& make) {
  DifferentialModel narrowed = make();
  const DifferentialOutcome fast =
      RunReceiverDifferential(seed, std::move(narrowed.model), narrowed.mutate);
  DifferentialModel wrapped = make();
  const DifferentialOutcome walk = RunReceiverDifferential(
      seed, std::make_unique<PassThroughPropagation>(std::move(wrapped.model)), wrapped.mutate);
  EXPECT_EQ(fast.deliveries, walk.deliveries) << "seed " << seed;
  EXPECT_EQ(fast.stats.transmissions, walk.stats.transmissions);
  EXPECT_EQ(fast.stats.receptions_attempted, walk.stats.receptions_attempted);
  EXPECT_EQ(fast.stats.collisions, walk.stats.collisions);
  EXPECT_EQ(fast.stats.propagation_losses, walk.stats.propagation_losses);
  EXPECT_EQ(fast.stats.deliveries, walk.stats.deliveries);
}

TEST(ChannelTest, ReceiverListsMatchBruteForceOverDiskAndFaultOverlay) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    RunCandidateAndFullWalk(seed, [seed] {
      constexpr NodeId kAll = 12;
      // Range 15 over [-35, 25]^2: 4x4 grid cells and more, either side of zero.
      auto random_position = [](Rng& rng) {
        return Position{rng.NextDoubleIn(-35, 25), rng.NextDoubleIn(-35, 25),
                        static_cast<int>(rng.NextInt(0, 1))};
      };
      Rng layout(seed * 7);
      auto disk_owned = std::make_unique<DiskPropagation>(15.0);
      DiskPropagation* disk = disk_owned.get();
      for (NodeId id = 1; id <= kAll; ++id) {
        disk->SetPosition(id, random_position(layout));
      }
      auto overlay_owned = std::make_unique<FaultOverlayPropagation>(std::move(disk_owned));
      FaultOverlayPropagation* overlay = overlay_owned.get();
      auto mutate = [disk, overlay, random_position](Rng& rng) {
        const NodeId a = static_cast<NodeId>(rng.NextInt(1, kAll));
        const NodeId b = static_cast<NodeId>(rng.NextInt(1, kAll));
        switch (rng.NextInt(0, 8)) {
          case 0:
            disk->SetPosition(a, random_position(rng));
            break;
          case 1:
            disk->SetLinkQuality(a, b, LinkQuality{});
            break;
          case 2:
            disk->BlockLink(a, b);
            break;
          case 3:
            // Wider than the range: the grid's cells grow with it.
            disk->set_inter_floor_range(rng.NextBool(0.5) ? 0.0 : 20.0);
            break;
          case 4:
            overlay->BlackoutLink(a, b);
            break;
          case 5:
            overlay->RestoreLink(a, b);
            break;
          case 6: {
            std::vector<NodeId> left;
            std::vector<NodeId> right;
            for (NodeId id = 1; id <= kAll; ++id) {
              const int64_t side = rng.NextInt(0, 2);  // 2: in neither group
              if (side < 2) {
                (side == 0 ? left : right).push_back(id);
              }
            }
            overlay->Partition(left, right);
            break;
          }
          case 7:
            overlay->Heal();
            break;
          default:
            overlay->DegradeLink(a, b, 0.0);
            break;
        }
      };
      return DifferentialModel{std::move(overlay_owned), mutate};
    });
  }
}

TEST(ChannelTest, ReceiverListsMatchBruteForceOverExplicitTopology) {
  for (uint64_t seed : {201u, 202u}) {
    RunCandidateAndFullWalk(seed, [seed] {
      constexpr NodeId kAll = 12;
      auto owned = std::make_unique<ExplicitTopology>();
      ExplicitTopology* topology = owned.get();
      Rng layout(seed * 7);
      for (int i = 0; i < 40; ++i) {
        topology->AddLink(static_cast<NodeId>(layout.NextInt(1, kAll)),
                          static_cast<NodeId>(layout.NextInt(1, kAll)));
      }
      auto mutate = [topology](Rng& rng) {
        const NodeId a = static_cast<NodeId>(rng.NextInt(1, kAll));
        const NodeId b = static_cast<NodeId>(rng.NextInt(1, kAll));
        if (rng.NextBool(0.5)) {
          topology->AddLink(a, b);
        } else {
          topology->RemoveLink(a, b);
        }
      };
      return DifferentialModel{std::move(owned), mutate};
    });
  }
}

// ---- Large node ids ----

// Node ids are opaque 32-bit values, so the channel's per-node bookkeeping
// must not be sized by the largest id (a table indexed by id would need
// 2^32 entries for these).
TEST(ChannelTest, LargeNodeIdsAttachTransmitDetachAndReattach) {
  constexpr NodeId kHigh = 0xfffffffe;
  constexpr NodeId kNext = 0xfffffffd;
  constexpr NodeId kRemote = 0xfffffffc;  // only sends remote frames
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const long peak_kib_before = usage.ru_maxrss;

  Simulator sim(41);
  auto topology = std::make_unique<ExplicitTopology>();
  for (NodeId a : {NodeId{1}, kNext, kHigh, kRemote}) {
    for (NodeId b : {NodeId{1}, kNext, kHigh}) {
      if (a != b) {
        topology->AddLink(a, b);
      }
    }
  }
  Channel channel(&sim, std::move(topology));
  FrameDriver driver(&sim, &channel, {1, kNext, kHigh});
  EXPECT_EQ(driver.Send(kHigh), (Ids{1, kNext}));
  EXPECT_EQ(driver.sensed(), (Ids{1, kNext}));

  channel.Detach(kNext);
  EXPECT_EQ(driver.Send(1), (Ids{kHigh}));
  driver.Attach(kNext);
  EXPECT_EQ(driver.Send(1), (Ids{kNext, kHigh}));
  EXPECT_EQ(channel.NodeStats(kNext).deliveries, 2u);  // parked across the detach
  EXPECT_EQ(channel.NodeStatsSinceAttach(kNext).deliveries, 1u);

  const uint64_t delivered_before = channel.stats().deliveries;
  channel.DeliverRemote(kRemote, TestFrame(kRemote), kFrameAirtime);
  EXPECT_EQ(channel.stats().deliveries - delivered_before, 3u);

  getrusage(RUSAGE_SELF, &usage);
  EXPECT_LT(usage.ru_maxrss - peak_kib_before, 64 * 1024);  // well under 64 MiB
}

// The region partition and the world built on it look node ids up too;
// neither may size a table by the largest id.
TEST(RegionMapTest, LargeNodeIdsPartitionAndRunAcrossRegions) {
  constexpr NodeId kSink = 0xfffffffe;
  constexpr NodeId kSource = 0xfffffff0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const long peak_kib_before = usage.ru_maxrss;

  // Two nodes in range across the cut between two regions, as in
  // ShardedWorldTest.CrossRegionFragmentReassembly.
  TestbedLayout layout;
  layout.node_ids = {kSource, kSink};
  layout.positions[kSource] = Position{45.0, 0.0};
  layout.positions[kSink] = Position{55.0, 0.0};
  layout.radio_range = 12.0;

  TestbedWorld world(3, layout, MakePropagation(layout, 0.98), NodeOptions{}, nullptr,
                     {.regions = 2, .threads = 2});
  const RegionMap& map = world.region_map();
  ASSERT_EQ(map.regions(), 2);
  EXPECT_EQ(map.RegionOf(kSource), 0);
  EXPECT_EQ(map.RegionOf(kSink), 1);
  EXPECT_EQ(map.RegionOf(kSource + 1), -1);
  EXPECT_EQ(map.RegionOf(0xffffffff), -1);
  EXPECT_EQ(map.RegionOf(0), -1);

  SurveillanceConfig config;
  SurveillanceSink sink(world.node(kSink), config);
  sink.Start();
  SurveillanceSource source(world.node(kSource), config, 1);
  world.sim_of(kSource).At(kSecond, [&source] { source.Start(); });
  world.RunUntil(60 * kSecond);
  EXPECT_GT(world.bridge().frames_handed_off(), 0u);
  EXPECT_GE(sink.distinct_events(), 5u);

  getrusage(RUSAGE_SELF, &usage);
  EXPECT_LT(usage.ru_maxrss - peak_kib_before, 64 * 1024);  // well under 64 MiB
}

// ---- Reentrancy ----

// A delivery callback that transmits synchronously from senders whose lists
// do not exist yet, so lists are built (and the list map grows) while the
// channel is inside its own delivery loop. Pinned under ASan in CI.
TEST(ChannelTest, TransmitFromDeliveryCallbackBuildsListsSafely) {
  constexpr NodeId kNodes = 40;
  constexpr NodeId kRemote = kNodes + 1;
  for (bool remote : {false, true}) {
    SCOPED_TRACE(remote ? "inside DeliverRemote" : "inside FinishTransmit");
    Simulator sim(31);
    auto topology = std::make_unique<ExplicitTopology>();
    for (NodeId a = 1; a <= kRemote; ++a) {
      for (NodeId b = 1; b <= kNodes; ++b) {
        if (a != b) {
          topology->AddLink(a, b);
        }
      }
    }
    Channel channel(&sim, std::move(topology));
    std::vector<std::unique_ptr<RecordingEndpoint>> endpoints;
    for (NodeId id = 1; id <= kNodes; ++id) {
      endpoints.push_back(std::make_unique<RecordingEndpoint>(id));
      channel.Attach(endpoints.back().get());
    }
    // Node 2's first delivery makes every node from 3 up transmit at once.
    bool fired = false;
    endpoints[1]->set_on_delivered([&] {
      if (fired) {
        return;
      }
      fired = true;
      for (NodeId sender = 3; sender <= kNodes; ++sender) {
        channel.Transmit(*endpoints[sender - 1], TestFrame(sender), kFrameAirtime);
      }
    });

    if (remote) {
      channel.DeliverRemote(kRemote, TestFrame(kRemote), kFrameAirtime);
      // Ascending order: 1 and 2 decode; everyone after 2 is now mid-reception
      // of a local frame and loses the remote one.
      EXPECT_EQ(endpoints[0]->delivered(), 1);
      EXPECT_EQ(endpoints[1]->delivered(), 1);
      EXPECT_EQ(channel.stats().collisions, kNodes - 2);
    } else {
      channel.Transmit(*endpoints[0], TestFrame(1), kFrameAirtime);
      sim.RunUntil(sim.now() + kFrameAirtime);
      // The first frame had ended, so none of its receivers lost it to the
      // transmissions its delivery set off.
      EXPECT_EQ(channel.stats().deliveries, kNodes - 1);
      EXPECT_EQ(channel.stats().collisions, 0u);
    }
    EXPECT_TRUE(fired);
    sim.RunUntil(sim.now() + 2 * kFrameAirtime);
    const ChannelStats& stats = channel.stats();
    EXPECT_EQ(stats.transmissions, (remote ? 0u : 1u) + (kNodes - 2));
    EXPECT_EQ(stats.receptions_attempted,
              stats.collisions + stats.propagation_losses + stats.deliveries);
    for (const auto& endpoint : endpoints) {
      endpoint->set_on_delivered(nullptr);
    }
  }
}

TEST(MacTest, QueueOverflowDrops) {
  Simulator sim(8);
  auto channel = MakeLineChannel(&sim, 2);
  RadioConfig config = FastRadio();
  config.mac.queue_limit = 4;
  Radio a(&sim, channel.get(), 1, config);
  Radio b(&sim, channel.get(), 2, config);
  // 3 messages of 5 fragments each = 15 fragments, queue holds 4.
  for (int i = 0; i < 3; ++i) {
    a.SendMessage(kBroadcastId, std::vector<uint8_t>(112, 1));
  }
  EXPECT_GT(a.stats().fragments_dropped, 0u);
  sim.RunUntil(kSecond);
  EXPECT_GT(a.mac_stats().frames_sent, 0u);
}

namespace {

// A body that counts how many of its kind are referenced: +1 when built,
// -1 when the last BodyRef drops.
class CountedBody final : public WireBody {
 public:
  CountedBody(uint8_t tag, int* live) : tag_(tag), live_(live) { ++*live_; }

  size_t wire_size() const override { return 1; }
  void AppendBytes(std::vector<uint8_t>* out) const override { out->push_back(tag_); }

 private:
  void Recycle() override { --*live_; }

  uint8_t tag_;
  int* live_;
};

// Drives a CsmaMac directly from node 1 of a two-node line, one-fragment
// frames tagged with their sequence number; node 2 records the tags it
// receives, in order.
class MacQueueHarness {
 public:
  explicit MacQueueHarness(size_t queue_limit)
      : channel_(MakeLineChannel(&sim_, 2)),
        a_(&sim_, channel_.get(), 1, FastRadio()),
        b_(&sim_, channel_.get(), 2, FastRadio()),
        mac_(&sim_, channel_.get(), &a_, Config(queue_limit)) {
    b_.SetReceiveCallback(
        [this](NodeId, const WireBody& body) { received_.push_back(BodyBytes(body).at(0)); });
  }

  MacResult Send(uint8_t tag) {
    bodies_.push_back(std::make_unique<CountedBody>(tag, &live_));
    Fragment frame;
    frame.src = 1;
    frame.message_seq = next_seq_++;
    frame.body = BodyRef(bodies_.back().get());
    frame.payload_len = 1;
    return mac_.Enqueue(std::move(frame));
  }

  // Runs until `count` frames have arrived and the sender is idle.
  void RunUntilReceived(size_t count) {
    while (received_.size() < count || mac_.transmitting()) {
      ASSERT_LT(sim_.now(), 10 * kSecond) << "frames stopped flowing";
      sim_.RunUntil(sim_.now() + 10);
    }
  }

  void RunOut() { sim_.RunUntil(sim_.now() + kSecond); }

  CsmaMac& mac() { return mac_; }
  const std::vector<uint8_t>& received() const { return received_; }
  int live_bodies() const { return live_; }

 private:
  static MacConfig Config(size_t queue_limit) {
    MacConfig config = FastRadio().mac;
    config.queue_limit = queue_limit;
    return config;
  }

  // Declared first so they outlive every holder of a BodyRef below.
  int live_ = 0;
  std::vector<std::unique_ptr<CountedBody>> bodies_;
  Simulator sim_{21};
  std::unique_ptr<Channel> channel_;
  Radio a_;
  Radio b_;
  CsmaMac mac_;
  uint32_t next_seq_ = 0;
  std::vector<uint8_t> received_;
};

}  // namespace

TEST(MacTest, FramesLeaveInEnqueueOrderAcrossRingWraps) {
  // A limit of 5 leaves the ring a power of two above it. Bursts of 1..5
  // frames go in while earlier ones are still queued, so the head wraps
  // many times over, and 90 frames pass a queue that holds 5.
  MacQueueHarness harness(5);
  std::vector<uint8_t> sent;
  for (int round = 0; round < 30; ++round) {
    const size_t burst = 1 + static_cast<size_t>(round) % 5;
    // Let the queue drain just far enough to take the burst.
    harness.RunUntilReceived(sent.size() + burst > 5 ? sent.size() + burst - 5 : 0);
    for (size_t i = 0; i < burst; ++i) {
      const auto tag = static_cast<uint8_t>(sent.size());
      ASSERT_EQ(harness.Send(tag), MacResult::kQueued) << "frame " << sent.size();
      sent.push_back(tag);
    }
  }
  ASSERT_GT(sent.size(), 3u * 8u);
  harness.RunOut();
  EXPECT_EQ(harness.received(), sent);
  EXPECT_EQ(harness.mac().stats().drops_queue_full, 0u);
  EXPECT_EQ(harness.mac().stats().frames_sent, sent.size());
  EXPECT_EQ(harness.live_bodies(), 0) << "a sent frame's slot kept its body";
}

TEST(MacTest, FullQueueDropsTheNextFrameAfterEarlierFramesLeft) {
  MacQueueHarness harness(4);
  for (uint8_t tag = 0; tag < 4; ++tag) {
    ASSERT_EQ(harness.Send(tag), MacResult::kQueued);
  }
  EXPECT_EQ(harness.Send(4), MacResult::kDroppedQueueFull);
  EXPECT_EQ(harness.mac().stats().drops_queue_full, 1u);
  // Two frames leave; two more fill the queue back to its limit with the
  // tail wrapped past the ring's end, and the next is dropped again.
  harness.RunUntilReceived(2);
  ASSERT_EQ(harness.received().size(), 2u);
  EXPECT_EQ(harness.Send(5), MacResult::kQueued);
  EXPECT_EQ(harness.Send(6), MacResult::kQueued);
  EXPECT_EQ(harness.Send(7), MacResult::kDroppedQueueFull);
  EXPECT_EQ(harness.mac().stats().drops_queue_full, 2u);
  harness.RunOut();
  EXPECT_EQ(harness.received(), (std::vector<uint8_t>{0, 1, 2, 3, 5, 6}));
  EXPECT_EQ(harness.live_bodies(), 0);
}

TEST(MacTest, ResetReleasesEveryQueuedBody) {
  MacQueueHarness harness(4);
  for (uint8_t tag = 0; tag < 4; ++tag) {
    ASSERT_EQ(harness.Send(tag), MacResult::kQueued);
  }
  EXPECT_EQ(harness.live_bodies(), 4);
  harness.mac().Reset();
  EXPECT_EQ(harness.live_bodies(), 0);
  harness.RunOut();
  EXPECT_TRUE(harness.received().empty());

  // Again with the ring wrapped: two frames out, three in, then Reset.
  for (uint8_t tag = 10; tag < 14; ++tag) {
    ASSERT_EQ(harness.Send(tag), MacResult::kQueued);
  }
  harness.RunUntilReceived(2);
  for (uint8_t tag = 14; tag < 16; ++tag) {
    ASSERT_EQ(harness.Send(tag), MacResult::kQueued);
  }
  EXPECT_EQ(harness.live_bodies(), 4);
  harness.mac().Reset();
  EXPECT_EQ(harness.live_bodies(), 0);

  // The queue works after a reset.
  ASSERT_EQ(harness.Send(20), MacResult::kQueued);
  harness.RunOut();
  EXPECT_EQ(harness.received(), (std::vector<uint8_t>{10, 11, 20}));
  EXPECT_EQ(harness.live_bodies(), 0);
}

TEST(MacTest, AirtimeScalesWithBytes) {
  Simulator sim(9);
  auto channel = MakeLineChannel(&sim, 2);
  MacConfig config;
  config.bitrate_bps = 13000;
  config.frame_overhead_bytes = 8;
  Radio radio(&sim, channel.get(), 1, RadioConfig{config, 27, 10 * kSecond});
  // A full 27-byte fragment: (27 + 16 header + 8 overhead) * 8 bits / 13kbps.
  CsmaMac mac(&sim, channel.get(), &radio, config);
  const SimDuration airtime = mac.FrameAirtime(Fragment::kHeaderBytes + 27);
  const double expected_s = (27.0 + Fragment::kHeaderBytes + 8.0) * 8.0 / 13000.0;
  EXPECT_NEAR(DurationToSeconds(airtime), expected_s, 1e-6);
}

// ---- Duty-cycled MAC ----

TEST(DutyCycleTest, WindowHelpers) {
  MacConfig config;
  config.duty_cycle = 0.25;
  config.duty_period = 1000;
  EXPECT_TRUE(InAwakeWindow(0, config));
  EXPECT_TRUE(InAwakeWindow(249, config));
  EXPECT_FALSE(InAwakeWindow(250, config));
  EXPECT_FALSE(InAwakeWindow(999, config));
  EXPECT_TRUE(InAwakeWindow(1000, config));
  EXPECT_EQ(NextAwakeTime(100, config), 100);
  EXPECT_EQ(NextAwakeTime(500, config), 1000);
  config.duty_cycle = 1.0;
  EXPECT_TRUE(InAwakeWindow(999999, config));
}

TEST(DutyCycleTest, TransmissionsDeferredIntoAwakeWindows) {
  Simulator sim(41);
  auto channel = MakeLineChannel(&sim, 2);
  RadioConfig config = FastRadio();
  config.mac.duty_cycle = 0.2;
  config.mac.duty_period = 1 * kSecond;
  Radio a(&sim, channel.get(), 1, config);
  Radio b(&sim, channel.get(), 2, config);
  std::vector<SimTime> deliveries;
  b.SetReceiveCallback([&](NodeId, const WireBody&) { deliveries.push_back(sim.now()); });
  // Send mid-sleep (t = 0.5 s): the frame must wait for the 1.0 s window.
  sim.At(500 * kMillisecond, [&a] { a.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1)); });
  sim.RunUntil(5 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_GE(deliveries[0], 1 * kSecond);
  EXPECT_LT(deliveries[0] % kSecond, 200 * kMillisecond + 10 * kMillisecond);
}

TEST(DutyCycleTest, SleepingReceiverPaysNoReceiveTime) {
  Simulator sim(42);
  auto channel = MakeLineChannel(&sim, 2);
  RadioConfig awake_config = FastRadio();  // sender always on
  RadioConfig sleepy_config = FastRadio();
  sleepy_config.mac.duty_cycle = 0.1;
  sleepy_config.mac.duty_period = 1 * kSecond;
  Radio sender(&sim, channel.get(), 1, awake_config);
  Radio sleeper(&sim, channel.get(), 2, sleepy_config);
  int received = 0;
  sleeper.SetReceiveCallback([&](NodeId, const WireBody&) { ++received; });
  // The always-on sender transmits while the sleeper is off: nothing heard.
  sim.At(500 * kMillisecond, [&sender] {
    sender.SendMessage(kBroadcastId, std::vector<uint8_t>(20, 1));
  });
  sim.RunUntil(900 * kMillisecond);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(sleeper.stats().time_receiving, 0);
}

TEST(DutyCycleTest, DiffusionWorksUnderDutyCyclingWithAddedLatency) {
  auto run = [](double duty) {
    Simulator sim(43);
    auto channel = MakeLineChannel(&sim, 3);
    RadioConfig config = FastRadio();
    config.mac.duty_cycle = duty;
    config.mac.duty_period = 1 * kSecond;
    std::vector<std::unique_ptr<DiffusionNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
      nodes.push_back(
          std::make_unique<DiffusionNode>(&sim, channel.get(), id, NodeOptions{.radio = config}));
    }
    std::vector<SimTime> latencies;
    (void)nodes[0]->Subscribe(
        {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "t")},
        [&](const AttributeVector& attrs) {
          const Attribute* stamp = FindActual(attrs, kKeyTimestamp);
          latencies.push_back(sim.now() - stamp->AsInt().value_or(0));
        });
    const PublicationHandle pub =
        nodes[2]->Publish({Attribute::String(kKeyType, AttrOp::kIs, "t")});
    sim.RunUntil(5 * kSecond);
    for (int i = 0; i < 10; ++i) {
      sim.After(i * 5 * kSecond + 2718281, [&, i] {
        (void)nodes[2]->Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, i),
                             Attribute::Int64(kKeyTimestamp, AttrOp::kIs, sim.now())});
      });
    }
    sim.RunUntil(2 * kMinute);
    double mean = 0;
    for (SimTime latency : latencies) {
      mean += static_cast<double>(latency);
    }
    return std::pair<size_t, double>(latencies.size(),
                                     latencies.empty() ? 0.0 : mean / latencies.size());
  };
  const auto [count_full, latency_full] = run(1.0);
  const auto [count_low, latency_low] = run(0.3);
  EXPECT_GE(count_full, 9u);
  EXPECT_GE(count_low, 9u);  // still functional
  EXPECT_GT(latency_low, latency_full * 3);  // but pays sleep deferral
}

// ---- Energy model (§6.1) ----

TEST(EnergyModelTest, FullDutyCycleDominatedByListening) {
  const double fraction = ListenEnergyFraction(1.0, EnergyRatios{}, PaperTimeShares());
  EXPECT_GT(fraction, 0.8);
}

TEST(EnergyModelTest, HalfEnergyAtTwentyTwoPercent) {
  // "At duty cycle of 22% half of the energy is spent listening."
  const double fraction = ListenEnergyFraction(0.22, EnergyRatios{}, PaperTimeShares());
  EXPECT_NEAR(fraction, 0.5, 0.03);
}

TEST(EnergyModelTest, TenPercentDominatedByCommunication) {
  // "Duty cycles of 10% begin to be dominated by send cost."
  const double fraction = ListenEnergyFraction(0.10, EnergyRatios{}, PaperTimeShares());
  EXPECT_LT(fraction, 0.4);
}

TEST(EnergyModelTest, TotalEnergyMonotoneInDutyCycle) {
  double last = 0.0;
  for (double d = 0.0; d <= 1.0; d += 0.1) {
    const double energy = TotalEnergy(d, EnergyRatios{}, PaperTimeShares());
    EXPECT_GE(energy, last);
    last = energy;
  }
}

TEST(EnergyModelTest, SharesFromStatsPartitionsTime) {
  RadioStats stats;
  stats.time_receiving = 3 * kSecond;
  const TimeShares shares = SharesFromStats(stats, 2 * kSecond, 10 * kSecond);
  EXPECT_NEAR(shares.send, 0.2, 1e-9);
  EXPECT_NEAR(shares.receive, 0.3, 1e-9);
  EXPECT_NEAR(shares.listen, 0.5, 1e-9);
}

}  // namespace
}  // namespace diffusion
