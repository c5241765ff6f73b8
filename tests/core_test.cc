// Integration tests for the diffusion core: interests, gradients,
// exploratory data, reinforcement, the publish/subscribe API, and failure
// recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <tuple>
#include <unordered_set>

#include "src/core/data_cache.h"
#include "src/core/gradient_table.h"
#include "src/core/match_index.h"
#include "src/core/message.h"
#include "src/core/node.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::MakeLineChannel;

AttributeVector LightQuery() {
  return {
      ClassEq(kClassData),
      Attribute::String(kKeyType, AttrOp::kEq, "light"),
  };
}

AttributeVector LightPublication() {
  return {Attribute::String(kKeyType, AttrOp::kIs, "light")};
}

AttributeVector Reading(int32_t value) {
  return {Attribute::Int32(kKeySequence, AttrOp::kIs, value)};
}

int32_t SequenceOf(const AttributeVector& attrs) {
  const Attribute* attr = FindActual(attrs, kKeySequence);
  if (attr == nullptr) {
    return -1;
  }
  return static_cast<int32_t>(attr->AsInt().value_or(-1));
}

// ---- Message ----

TEST(MessageTest, SerializeRoundTrip) {
  Message message;
  message.type = MessageType::kExploratoryData;
  message.origin = 17;
  message.origin_seq = 42;
  message.ttl = 9;
  message.attrs = LightPublication();
  const auto bytes = message.Serialize();
  EXPECT_EQ(bytes.size(), message.WireSize());
  const auto round = Message::Deserialize(bytes);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->type, MessageType::kExploratoryData);
  EXPECT_EQ(round->origin, 17u);
  EXPECT_EQ(round->origin_seq, 42u);
  EXPECT_EQ(round->ttl, 9);
  EXPECT_EQ(round->attrs, message.attrs);
}

TEST(MessageTest, PacketIdCombinesOriginAndSeq) {
  Message a;
  a.origin = 1;
  a.origin_seq = 2;
  Message b;
  b.origin = 2;
  b.origin_seq = 1;
  EXPECT_NE(a.PacketId(), b.PacketId());
}

TEST(MessageTest, DeserializeRejectsBadType) {
  Message message;
  message.attrs = {};
  auto bytes = message.Serialize();
  bytes[0] = 99;
  EXPECT_EQ(Message::Deserialize(bytes), std::nullopt);
}

// ---- DataCache ----

TEST(DataCacheTest, DetectsDuplicates) {
  DataCache cache(8);
  EXPECT_FALSE(cache.CheckAndInsert(1));
  EXPECT_TRUE(cache.CheckAndInsert(1));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DataCacheTest, EvictsFifoAtCapacity) {
  DataCache cache(3);
  cache.CheckAndInsert(1);
  cache.CheckAndInsert(2);
  cache.CheckAndInsert(3);
  cache.CheckAndInsert(4);  // evicts 1
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_FALSE(cache.CheckAndInsert(1));  // 1 may be reinserted
}

TEST(DataCacheTest, SetAndOrderStayInLockStep) {
  // Regression: evict-then-reinsert churn could desync the membership set
  // from the FIFO order (a stale order record evicting a live re-inserted
  // id), inflating duplicate counts. The tick-stamped eviction keeps both
  // structures the same size with matching records.
  DataCache cache(4);
  // Heavy churn: reinsert evicted ids, interleave fresh ones, duplicate hits.
  for (uint64_t round = 0; round < 200; ++round) {
    cache.CheckAndInsert(round % 7);        // cycles through eviction
    cache.CheckAndInsert(1000 + round);     // always fresh
    cache.CheckAndInsert(round % 3);        // frequent duplicates + reinserts
    ASSERT_EQ(cache.size(), cache.order_size()) << "round " << round;
    ASSERT_TRUE(cache.ConsistencyCheck()) << "round " << round;
    ASSERT_LE(cache.size(), cache.capacity() + 1);
  }
  // A re-inserted id survives the eviction of its stale epoch.
  DataCache small(2);
  EXPECT_FALSE(small.CheckAndInsert(1));
  EXPECT_FALSE(small.CheckAndInsert(2));
  EXPECT_FALSE(small.CheckAndInsert(3));  // evicts 1
  EXPECT_FALSE(small.CheckAndInsert(1));  // re-inserted
  EXPECT_TRUE(small.CheckAndInsert(1));   // still present: a duplicate
  EXPECT_TRUE(small.ConsistencyCheck());
}

// The FIFO duplicate cache as the node once kept it: a hash set for
// membership beside a queue for eviction order.
class ReferenceCache {
 public:
  explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

  bool CheckAndInsert(uint64_t id) {
    if (set_.contains(id)) {
      return true;
    }
    set_.insert(id);
    order_.push_back(id);
    while (order_.size() > capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return false;
  }
  void Clear() {
    set_.clear();
    order_.clear();
  }
  bool Contains(uint64_t id) const { return set_.contains(id); }
  size_t size() const { return set_.size(); }

 private:
  size_t capacity_;
  std::unordered_set<uint64_t> set_;
  std::deque<uint64_t> order_;
};

TEST(DataCacheTest, MatchesReferenceFifoOverRandomStreams) {
  for (size_t capacity : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{4096}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Rng rng(capacity + 17);
    DataCache cache(capacity);
    ReferenceCache reference(capacity);
    // A universe a few times the capacity makes evicted ids come back; packet
    // ids from a few origins share their low bits, full-width ids do not.
    const uint64_t universe = 3 * capacity + 5;
    const auto draw = [&rng, universe]() -> uint64_t {
      switch (rng.Next() % 3) {
        case 0:
          return rng.Next() % universe;
        case 1:
          return ((rng.Next() % 4) << 32) | (rng.Next() % universe);
        default:
          return rng.Next() | (uint64_t{1} << 63);
      }
    };
    uint64_t hits = 0;
    for (int step = 0; step < 30000; ++step) {
      if (rng.Next() % 5000 == 0) {
        cache.Clear();
        reference.Clear();
      }
      const uint64_t id = draw();
      const bool duplicate = reference.CheckAndInsert(id);
      hits += duplicate ? 1 : 0;
      ASSERT_EQ(cache.CheckAndInsert(id), duplicate) << "step " << step;
      ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
      const uint64_t probe = draw();
      ASSERT_EQ(cache.Contains(probe), reference.Contains(probe)) << "step " << step;
      if (step % 97 == 0) {
        ASSERT_TRUE(cache.ConsistencyCheck()) << "step " << step;
      }
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_LE(cache.size(), capacity);
    EXPECT_TRUE(cache.ConsistencyCheck());
  }
}

// ---- GradientTable ----

TEST(GradientTableTest, ExactMatchLookup) {
  GradientTable table;
  const AttributeVector attrs = LightQuery();
  EXPECT_EQ(table.FindExact(attrs), nullptr);
  InterestEntry& entry = table.InsertOrRefresh(attrs, 100);
  EXPECT_EQ(table.FindExact(attrs), &entry);
  // Order-insensitive.
  AttributeVector reversed = {attrs[1], attrs[0]};
  EXPECT_EQ(table.FindExact(reversed), &entry);
  EXPECT_EQ(table.size(), 1u);
  table.InsertOrRefresh(attrs, 200);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(entry.expires, 200);
}

TEST(GradientTableTest, MatchDataFindsCompatibleInterests) {
  GradientTable table;
  table.InsertOrRefresh(LightQuery(), 100);
  AttributeVector data = LightPublication();
  data.push_back(ClassIs(kClassData));
  EXPECT_EQ(table.MatchData(data).size(), 1u);
  AttributeVector other = {Attribute::String(kKeyType, AttrOp::kIs, "audio"),
                           ClassIs(kClassData)};
  EXPECT_TRUE(table.MatchData(other).empty());
}

TEST(GradientTableTest, GradientRefreshAndExpiry) {
  GradientTable table;
  InterestEntry& entry = table.InsertOrRefresh(LightQuery(), 100);
  table.AddOrRefreshGradient(entry, 7, 50);
  table.AddOrRefreshGradient(entry, 8, 150);
  table.AddOrRefreshGradient(entry, 7, 80);  // refresh extends
  ASSERT_EQ(entry.gradients.size(), 2u);
  table.Expire(81);
  ASSERT_EQ(entry.gradients.size(), 1u);
  EXPECT_EQ(entry.gradients[0].neighbor, 8u);
}

TEST(GradientTableTest, ReinforcementFlagDecays) {
  GradientTable table;
  InterestEntry& entry = table.InsertOrRefresh(LightQuery(), 1000);
  Gradient& gradient = table.AddOrRefreshGradient(entry, 7, 1000);
  table.Reinforce(gradient, 100);  // ends before every expiry in the table
  table.Expire(100);
  EXPECT_TRUE(entry.HasReinforcedGradient());
  table.Expire(101);
  EXPECT_FALSE(entry.HasReinforcedGradient());
  ASSERT_EQ(entry.gradients.size(), 1u);  // gradient itself survives
}

// The reference for the expiry deadline: a gradient table whose Expire
// walks every entry on every call. Entries are keyed by a small integer.
class ReferenceGradientTable {
 public:
  struct Entry {
    int key;
    SimTime expires;
    bool is_local = false;
    std::vector<Gradient> gradients;
  };
  // (entry key, neighbor, reinforced) per dropped gradient, in order.
  using Dropped = std::vector<std::tuple<int, NodeId, bool>>;

  Entry* Find(int key) {
    for (Entry& entry : entries) {
      if (entry.key == key) {
        return &entry;
      }
    }
    return nullptr;
  }
  Entry& InsertOrRefresh(int key, SimTime expires) {
    if (Entry* existing = Find(key)) {
      existing->expires = std::max(existing->expires, expires);
      return *existing;
    }
    entries.push_back(Entry{key, expires, false, {}});
    return entries.back();
  }
  Gradient& AddOrRefreshGradient(Entry& entry, NodeId neighbor, SimTime expires) {
    for (Gradient& gradient : entry.gradients) {
      if (gradient.neighbor == neighbor) {
        gradient.expires = std::max(gradient.expires, expires);
        return gradient;
      }
    }
    entry.gradients.push_back(Gradient{neighbor, expires, false, 0});
    return entry.gradients.back();
  }
  void Expire(SimTime now) {
    for (auto it = entries.begin(); it != entries.end();) {
      for (Gradient& gradient : it->gradients) {
        if (gradient.reinforced && gradient.reinforced_until < now) {
          gradient.reinforced = false;
        }
      }
      std::vector<Gradient> kept;
      for (const Gradient& gradient : it->gradients) {
        if (gradient.expires >= now) {
          kept.push_back(gradient);
        } else {
          dropped.emplace_back(it->key, gradient.neighbor, gradient.reinforced);
        }
      }
      it->gradients = std::move(kept);
      if (!it->is_local && it->expires < now && it->gradients.empty()) {
        it = entries.erase(it);
      } else {
        ++it;
      }
    }
  }
  bool RemoveLocal(int key) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->is_local && it->key == key) {
        entries.erase(it);
        return true;
      }
    }
    return false;
  }

  std::list<Entry> entries;
  Dropped dropped;
};

AttributeVector KeyedInterest(int key) {
  return {Attribute::Int32(kKeySequence, AttrOp::kIs, key)};
}

// Holds `table` to `reference`: the same entries in the same order, each
// with the same fields and gradients.
void ExpectSameTables(const GradientTable& table, const ReferenceGradientTable& reference) {
  ASSERT_EQ(table.size(), reference.entries.size());
  auto ref = reference.entries.begin();
  for (const InterestEntry& entry : table.entries()) {
    EXPECT_EQ(SequenceOf(entry.attrs.items()), ref->key);
    EXPECT_EQ(entry.expires, ref->expires);
    EXPECT_EQ(entry.is_local, ref->is_local);
    ASSERT_EQ(entry.gradients.size(), ref->gradients.size());
    for (size_t i = 0; i < entry.gradients.size(); ++i) {
      const Gradient& got = entry.gradients[i];
      const Gradient& want = ref->gradients[i];
      EXPECT_EQ(got.neighbor, want.neighbor);
      EXPECT_EQ(got.expires, want.expires);
      EXPECT_EQ(got.reinforced, want.reinforced);
      EXPECT_EQ(got.reinforced_until, want.reinforced_until);
    }
    ++ref;
  }
}

TEST(GradientTableTest, DeadlineExpiryMatchesFullWalk) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    GradientTable table;
    ReferenceGradientTable reference;
    ReferenceGradientTable::Dropped dropped;
    table.SetExpiryObserver([&dropped](const InterestEntry& entry, const Gradient& gradient) {
      dropped.emplace_back(SequenceOf(entry.attrs.items()), gradient.neighbor,
                           gradient.reinforced);
    });
    SimTime now = 0;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const int key = static_cast<int>(rng.NextInt(0, 5));
      const NodeId neighbor = static_cast<NodeId>(rng.NextInt(1, 4));
      InterestEntry* entry = table.FindExact(KeyedInterest(key));
      ReferenceGradientTable::Entry* ref = reference.Find(key);
      ASSERT_EQ(entry == nullptr, ref == nullptr);
      switch (rng.NextInt(0, 6)) {
        case 0: {  // insert or refresh, sometimes as a local subscription
          const SimTime expires = now + rng.NextInt(0, 60);
          const bool local = rng.NextBool(0.2);
          table.InsertOrRefresh(KeyedInterest(key), expires).is_local |= local;
          reference.InsertOrRefresh(key, expires).is_local |= local;
          break;
        }
        case 1:  // add or refresh a gradient
          if (entry != nullptr) {
            const SimTime expires = now + rng.NextInt(0, 60);
            table.AddOrRefreshGradient(*entry, neighbor, expires);
            reference.AddOrRefreshGradient(*ref, neighbor, expires);
          }
          break;
        case 2:  // reinforce, often until before every expiry in the table
          if (entry != nullptr) {
            const SimTime until = now + rng.NextInt(0, 20);
            table.Reinforce(table.AddOrRefreshGradient(*entry, neighbor, now + 60), until);
            Gradient& gradient = reference.AddOrRefreshGradient(*ref, neighbor, now + 60);
            gradient.reinforced = true;
            gradient.reinforced_until = until;
          }
          break;
        case 3:  // negative reinforcement clears the flag in place
          if (entry != nullptr && entry->FindGradient(neighbor) != nullptr) {
            entry->FindGradient(neighbor)->reinforced = false;
            for (Gradient& gradient : ref->gradients) {
              if (gradient.neighbor == neighbor) {
                gradient.reinforced = false;
              }
            }
          }
          break;
        case 4:
          EXPECT_EQ(table.RemoveLocal(KeyedInterest(key)), reference.RemoveLocal(key));
          break;
        default:  // time passes, then an expiry pass
          now += rng.NextInt(0, 15);
          table.Expire(now);
          reference.Expire(now);
          break;
      }
      ASSERT_EQ(dropped, reference.dropped);
      ExpectSameTables(table, reference);
    }
  }
}

TEST(GradientTableTest, ExpireKeepsLocalEntries) {
  GradientTable table;
  InterestEntry& local = table.InsertOrRefresh(LightQuery(), 10);
  local.is_local = true;
  table.InsertOrRefresh({ClassEq(kClassData)}, 10);
  table.Expire(100);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.entries().front().is_local);
}

TEST(GradientTableTest, RemoveLocal) {
  GradientTable table;
  InterestEntry& local = table.InsertOrRefresh(LightQuery(), 10);
  local.is_local = true;
  EXPECT_FALSE(table.RemoveLocal({ClassEq(kClassData)}));
  EXPECT_TRUE(table.RemoveLocal(LightQuery()));
  EXPECT_EQ(table.size(), 0u);
}

// ---- End-to-end pub/sub ----

class TwoNodeTest : public ::testing::Test {
 protected:
  TwoNodeTest()
      : sim_(12345),
        channel_(MakeCliqueChannel(&sim_, 2)),
        sink_(&sim_, channel_.get(), 1, NodeOptions{.radio = FastRadio()}),
        source_(&sim_, channel_.get(), 2, NodeOptions{.radio = FastRadio()}) {}

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  DiffusionNode sink_;
  DiffusionNode source_;
};

TEST_F(TwoNodeTest, DataFlowsToSubscriber) {
  std::vector<int32_t> received;
  (void)sink_.Subscribe(LightQuery(),
                  [&](const AttributeVector& attrs) { received.push_back(SequenceOf(attrs)); });
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);  // let the interest propagate
  for (int i = 0; i < 5; ++i) {
    sim_.After(i * 100 * kMillisecond, [&, i] { (void)source_.Send(pub, Reading(i)); });
  }
  sim_.RunUntil(10 * kSecond);
  EXPECT_EQ(received, (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST_F(TwoNodeTest, NoSubscriptionMeansDataStaysLocal) {
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);
  EXPECT_EQ(source_.Send(pub, Reading(1)), ApiResult::kNoMatchingInterest);
  EXPECT_EQ(source_.stats().data_originated, 0u);
  EXPECT_EQ(source_.radio().stats().messages_sent, 0u);
}

TEST_F(TwoNodeTest, NonMatchingDataNotDelivered) {
  int received = 0;
  (void)sink_.Subscribe(LightQuery(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub =
      source_.Publish({Attribute::String(kKeyType, AttrOp::kIs, "audio")});
  sim_.RunUntil(kSecond);
  EXPECT_EQ(source_.Send(pub, Reading(1)), ApiResult::kNoMatchingInterest);
  sim_.RunUntil(5 * kSecond);
  EXPECT_EQ(received, 0);
}

TEST_F(TwoNodeTest, UnsubscribeStopsDelivery) {
  int received = 0;
  const SubscriptionHandle sub =
      sink_.Subscribe(LightQuery(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);
  (void)source_.Send(pub, Reading(1));
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(received, 1);
  (void)sink_.Unsubscribe(sub);
  // After the remote gradient expires, data no longer leaves the source.
  sim_.RunUntil(10 * kMinute);
  const uint64_t before = source_.stats().data_originated;
  (void)source_.Send(pub, Reading(2));
  sim_.RunUntil(11 * kMinute);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(source_.stats().data_originated, before);
}

TEST_F(TwoNodeTest, SubscribeForSubscriptions) {
  // §4.1: "the application would subscribe for subscriptions and would be
  // informed when subscriptions arrive."
  int interests_seen = 0;
  AttributeVector watch = LightPublication();
  watch.push_back(ClassIs(kClassData));
  watch.push_back(ClassEq(kClassInterest));
  (void)source_.Subscribe(watch, [&](const AttributeVector&) { ++interests_seen; });
  EXPECT_EQ(source_.stats().interests_originated, 0u);  // meta-subs don't flood
  (void)sink_.Subscribe(LightQuery(), [](const AttributeVector&) {});
  sim_.RunUntil(kSecond);
  EXPECT_EQ(interests_seen, 1);
  // Interest refreshes are new packets and are seen again.
  sim_.RunUntil(kSecond + 65 * kSecond);
  EXPECT_EQ(interests_seen, 2);
}

TEST_F(TwoNodeTest, LocalDeliveryOnSameNode) {
  int received = 0;
  (void)sink_.Subscribe(LightQuery(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = sink_.Publish(LightPublication());
  sim_.RunUntil(100 * kMillisecond);
  EXPECT_EQ(sink_.Send(pub, Reading(1)), ApiResult::kOk);
  sim_.RunUntil(200 * kMillisecond);
  EXPECT_EQ(received, 1);
}

TEST_F(TwoNodeTest, InterestRefreshKeepsGradientsAlive) {
  std::vector<int32_t> received;
  (void)sink_.Subscribe(LightQuery(),
                  [&](const AttributeVector& attrs) { received.push_back(SequenceOf(attrs)); });
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);
  // Send an event every 10 s for 10 minutes — far past the gradient
  // lifetime, so only refreshes keep the path alive.
  for (int i = 0; i < 60; ++i) {
    sim_.After(i * 10 * kSecond, [&, i] { (void)source_.Send(pub, Reading(i)); });
  }
  sim_.RunUntil(11 * kMinute);
  EXPECT_GT(received.size(), 55u);
}

// ---- Multi-hop ----

class LineTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 5;

  LineTest() : sim_(777), channel_(MakeLineChannel(&sim_, kNodes)) {
    for (NodeId id = 1; id <= kNodes; ++id) {
      nodes_.push_back(std::make_unique<DiffusionNode>(
          &sim_, channel_.get(), id, NodeOptions{.radio = FastRadio()}));
    }
  }

  DiffusionNode& node(NodeId id) { return *nodes_[id - 1]; }

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<DiffusionNode>> nodes_;
};

TEST_F(LineTest, InterestFloodsAllHops) {
  (void)node(1).Subscribe(LightQuery(), [](const AttributeVector&) {});
  sim_.RunUntil(5 * kSecond);
  for (NodeId id = 2; id <= kNodes; ++id) {
    EXPECT_NE(node(id).gradients().FindExact(
                  [&] {
                    AttributeVector attrs = LightQuery();
                    attrs.push_back(ClassIs(kClassInterest));
                    return attrs;
                  }()),
              nullptr)
        << "node " << id << " missing interest entry";
  }
}

TEST_F(LineTest, DataCrossesFourHops) {
  std::vector<int32_t> received;
  (void)node(1).Subscribe(LightQuery(),
                    [&](const AttributeVector& attrs) { received.push_back(SequenceOf(attrs)); });
  const PublicationHandle pub = node(kNodes).Publish(LightPublication());
  sim_.RunUntil(2 * kSecond);
  for (int i = 0; i < 10; ++i) {
    sim_.After(i * kSecond, [&, i] { (void)node(kNodes).Send(pub, Reading(i)); });
  }
  sim_.RunUntil(30 * kSecond);
  // The first message is exploratory and establishes the path; everything
  // (or nearly everything) should arrive on a loss-free line.
  EXPECT_GE(received.size(), 9u);
  EXPECT_EQ(received.front(), 0);
}

TEST_F(LineTest, ReinforcementMarksPath) {
  (void)node(1).Subscribe(LightQuery(), [](const AttributeVector&) {});
  const PublicationHandle pub = node(kNodes).Publish(LightPublication());
  sim_.RunUntil(2 * kSecond);
  (void)node(kNodes).Send(pub, Reading(0));  // exploratory
  sim_.RunUntil(10 * kSecond);
  // Every intermediate node should now have a reinforced gradient toward
  // the sink side.
  AttributeVector interest_attrs = LightQuery();
  interest_attrs.push_back(ClassIs(kClassInterest));
  for (NodeId id = 2; id <= kNodes; ++id) {
    InterestEntry* entry = node(id).gradients().FindExact(interest_attrs);
    ASSERT_NE(entry, nullptr) << "node " << id;
    EXPECT_TRUE(entry->HasReinforcedGradient()) << "node " << id;
    Gradient* toward_sink = entry->FindGradient(id - 1);
    ASSERT_NE(toward_sink, nullptr) << "node " << id;
    EXPECT_TRUE(toward_sink->reinforced) << "node " << id;
  }
  // Regular data is unicast along the path, not flooded: each hop forwards
  // exactly once.
  const uint64_t forwarded_before = node(3).stats().messages_forwarded;
  (void)node(kNodes).Send(pub, Reading(1));
  sim_.RunUntil(12 * kSecond);
  EXPECT_EQ(node(3).stats().messages_forwarded, forwarded_before + 1);
}

TEST_F(LineTest, DuplicateFloodCopiesSuppressed) {
  (void)node(1).Subscribe(LightQuery(), [](const AttributeVector&) {});
  sim_.RunUntil(5 * kSecond);
  // Each node hears the interest from both line neighbors but re-floods
  // once; the second copy is a duplicate.
  EXPECT_GT(node(3).stats().duplicates_suppressed, 0u);
}

TEST_F(LineTest, PathRepairAfterNodeDeath) {
  std::vector<int32_t> received;
  (void)node(1).Subscribe(LightQuery(),
                    [&](const AttributeVector& attrs) { received.push_back(SequenceOf(attrs)); });
  const PublicationHandle pub = node(kNodes).Publish(LightPublication());
  sim_.RunUntil(2 * kSecond);
  // This line has no alternate path, so test repair on a clique overlay:
  // kill an intermediate node and verify delivery resumes once interests
  // re-flood (the line reroutes through... nothing — so instead verify that
  // traffic stops, which is the honest expectation here).
  (void)node(kNodes).Send(pub, Reading(0));
  sim_.RunUntil(4 * kSecond);
  ASSERT_EQ(received.size(), 1u);
  node(3).Kill();
  (void)node(kNodes).Send(pub, Reading(1));
  sim_.RunUntil(8 * kSecond);
  EXPECT_EQ(received.size(), 1u);  // severed line: nothing arrives
}

// Path repair with a real alternate route: a diamond 1-{2,3}-4.
TEST(DiamondTest, ReroutesAroundDeadNode) {
  Simulator sim(4242);
  auto topology = std::make_unique<ExplicitTopology>();
  topology->AddSymmetricLink(1, 2);
  topology->AddSymmetricLink(1, 3);
  topology->AddSymmetricLink(2, 4);
  topology->AddSymmetricLink(3, 4);
  auto channel = std::make_unique<Channel>(&sim, std::move(topology));

  DiffusionConfig config;
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 4; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.diffusion = config, .radio = FastRadio()}));
  }
  std::vector<int32_t> received;
  (void)nodes[0]->Subscribe(LightQuery(),
                      [&](const AttributeVector& attrs) { received.push_back(SequenceOf(attrs)); });
  const PublicationHandle pub = nodes[3]->Publish(LightPublication());
  sim.RunUntil(2 * kSecond);

  // Events every 6 s; every 10th is exploratory (paper cadence).
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent < 100) {
      (void)nodes[3]->Send(pub, Reading(sent++));
      sim.After(6 * kSecond, tick);
    }
  };
  sim.After(0, tick);
  sim.RunUntil(100 * kSecond);
  const size_t before_kill = received.size();
  EXPECT_GT(before_kill, 10u);

  // Kill whichever middle node is on the reinforced path; both are
  // candidates, so kill node 2 and let exploratory data re-establish a path
  // through node 3 (or confirm it already runs through 3).
  nodes[1]->Kill();
  sim.RunUntil(400 * kSecond);
  const size_t after_kill = received.size();
  // Deliveries must resume: at one event per 6 s over 300 s, expect dozens
  // of new events even allowing a repair gap of an exploratory period.
  EXPECT_GT(after_kill, before_kill + 20u);
}

TEST(CliqueScaleTest, ManySubscribersAllReceive) {
  Simulator sim(99);
  auto channel = MakeCliqueChannel(&sim, 6);
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 6; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.radio = FastRadio()}));
  }
  std::vector<int> counts(6, 0);
  for (size_t i = 0; i < 5; ++i) {
    (void)nodes[i]->Subscribe(LightQuery(), [&counts, i](const AttributeVector&) { ++counts[i]; });
  }
  const PublicationHandle pub = nodes[5]->Publish(LightPublication());
  sim.RunUntil(2 * kSecond);
  for (int i = 0; i < 5; ++i) {
    sim.After(i * kSecond, [&, i] { (void)nodes[5]->Send(pub, Reading(i)); });
  }
  sim.RunUntil(60 * kSecond);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GE(counts[i], 4) << "subscriber " << i;
  }
}

TEST(NeighborsTest, TracksHeardNodes) {
  Simulator sim(5);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode a(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode b(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode c(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});
  (void)a.Subscribe(LightQuery(), [](const AttributeVector&) {});
  sim.RunUntil(5 * kSecond);
  const auto neighbors_b = b.Neighbors();
  EXPECT_NE(std::find(neighbors_b.begin(), neighbors_b.end(), 1u), neighbors_b.end());
}

TEST(NeighborsTest, ListsEachHeardNodeOnceAscending) {
  Simulator sim(6);
  auto channel = MakeCliqueChannel(&sim, 4);
  const NodeOptions options{.radio = FastRadio()};
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : {4, 2, 3, 1}) {
    nodes.push_back(std::make_unique<DiffusionNode>(&sim, channel.get(), id, options));
    // Every node floods interests, so each hears every other one repeatedly.
    (void)nodes.back()->Subscribe(LightQuery(), [](const AttributeVector&) {});
  }
  sim.RunUntil(30 * kSecond);
  const DiffusionNode& one = *nodes.back();
  EXPECT_EQ(one.Neighbors(), (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(nodes.front()->Neighbors(), (std::vector<NodeId>{1, 2, 3}));
  nodes.back()->Reboot();
  EXPECT_TRUE(one.Neighbors().empty());
}

// An idle node holds only empty containers, so its size is the fixed cost
// every node pays before it does any work. Measured with gcc 12 on x86-64:
// sizeof(MatchIndex) 688 B, sizeof(Radio) 560 B, sizeof(DiffusionNode)
// 1,328 B. The node's two indexes sit behind pointers until their first
// Insert, and the radio keeps no copy of the MAC's configuration; holding
// either by value again, or bringing a per-level or per-slot array of
// containers back, fails here.
TEST(FootprintTest, IdleNodeStateStaysSmall) {
  EXPECT_LE(sizeof(MatchIndex), 1024u);
  EXPECT_LE(sizeof(Radio), 600u);
  EXPECT_LE(sizeof(DiffusionNode), 1536u);
}

// ---- Match indexes built on first use ----

// A relay never registers a filter or a subscription, so it never builds a
// match index, however much it forwards.
TEST_F(LineTest, RelayOnlyNodeHoldsNoMatchIndex) {
  (void)node(1).Subscribe(LightQuery(), [](const AttributeVector&) {});
  const PublicationHandle pub = node(kNodes).Publish(LightPublication());
  sim_.RunUntil(2 * kSecond);
  for (int i = 0; i < 5; ++i) {
    sim_.After(i * kSecond, [&, i] { (void)node(kNodes).Send(pub, Reading(i)); });
  }
  sim_.RunUntil(10 * kSecond);
  const DiffusionNode& relay = node(3);
  EXPECT_GT(relay.stats().messages_forwarded, 0u);
  EXPECT_GT(relay.MemoryBytes().gradients, 0u);
  EXPECT_EQ(relay.MemoryBytes().match_indexes, 0u);
  // The sink's subscription built its index.
  EXPECT_GE(node(1).MemoryBytes().match_indexes, sizeof(MatchIndex));
}

TEST_F(TwoNodeTest, ResubscribingAfterTheLastUnsubscribeStillDelivers) {
  std::vector<int32_t> received;
  const auto record = [&](const AttributeVector& attrs) { received.push_back(SequenceOf(attrs)); };
  const SubscriptionHandle first = sink_.Subscribe(LightQuery(), record);
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);
  (void)source_.Send(pub, Reading(1));
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(sink_.Unsubscribe(first), ApiResult::kOk);
  (void)sink_.Subscribe(LightQuery(), record);
  sim_.RunUntil(3 * kSecond);
  (void)source_.Send(pub, Reading(2));
  sim_.RunUntil(4 * kSecond);
  EXPECT_EQ(received, (std::vector<int32_t>{1, 2}));
}

// A filter formal on the data's `type` actual: it sees data, not interests.
AttributeVector LightFilter() { return {Attribute::String(kKeyType, AttrOp::kEq, "light")}; }

TEST_F(TwoNodeTest, FilterAddedMidRunCatchesTheNextMessage) {
  std::vector<int32_t> received;
  (void)sink_.Subscribe(LightQuery(), [&](const AttributeVector& attrs) {
    received.push_back(SequenceOf(attrs));
  });
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);
  (void)source_.Send(pub, Reading(1));
  sim_.RunUntil(2 * kSecond);
  ASSERT_EQ(received, (std::vector<int32_t>{1}));

  // The first filter on the node builds its index mid-run.
  std::vector<int32_t> filtered;
  FilterHandle handle = kInvalidHandle;
  handle = sink_.AddFilter(LightFilter(), 10, [&](Message& message, FilterApi& api) {
    filtered.push_back(SequenceOf(message.attrs.items()));
    api.SendMessage(std::move(message), handle);
  });
  (void)source_.Send(pub, Reading(2));
  sim_.RunUntil(3 * kSecond);
  EXPECT_EQ(filtered, (std::vector<int32_t>{2}));
  EXPECT_EQ(received, (std::vector<int32_t>{1, 2}));
}

TEST_F(TwoNodeTest, RemovingTheLastFilterSendsDispatchToTheCore) {
  std::vector<int32_t> received;
  (void)sink_.Subscribe(LightQuery(), [&](const AttributeVector& attrs) {
    received.push_back(SequenceOf(attrs));
  });
  int filtered = 0;
  FilterHandle handle = kInvalidHandle;
  handle = sink_.AddFilter(LightFilter(), 10, [&](Message& message, FilterApi& api) {
    ++filtered;
    api.SendMessage(std::move(message), handle);
  });
  const PublicationHandle pub = source_.Publish(LightPublication());
  sim_.RunUntil(kSecond);
  (void)source_.Send(pub, Reading(1));
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(filtered, 1);

  EXPECT_EQ(sink_.RemoveFilter(handle), ApiResult::kOk);
  (void)source_.Send(pub, Reading(2));
  sim_.RunUntil(3 * kSecond);
  EXPECT_EQ(filtered, 1);
  EXPECT_EQ(received, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(sink_.stats().stale_filter_reinjections, 0u);
}

}  // namespace
}  // namespace diffusion
