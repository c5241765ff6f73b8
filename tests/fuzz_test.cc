// Robustness sweeps: random and corrupted inputs must never crash or be
// misinterpreted — a lossy radio hands the parsers garbage routinely.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "src/core/match_index.h"
#include "src/core/message.h"
#include "src/micro/micro_wire.h"
#include "src/naming/attribute.h"
#include "src/naming/interner.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/radio/fragmentation.h"
#include "src/util/arena.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::BodyBytes;
using testing_support::SplitBytes;

std::vector<uint8_t> RandomBytes(Rng* rng, size_t max_size) {
  std::vector<uint8_t> bytes(static_cast<size_t>(rng->NextInt(0, static_cast<int64_t>(max_size))));
  for (uint8_t& byte : bytes) {
    byte = static_cast<uint8_t>(rng->Next());
  }
  return bytes;
}

class FuzzTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL + 1};
};

TEST_P(FuzzTest, MessageDeserializeNeverCrashes) {
  for (int i = 0; i < 200; ++i) {
    const std::vector<uint8_t> bytes = RandomBytes(&rng_, 300);
    const auto message = Message::Deserialize(bytes);
    if (message.has_value()) {
      // Whatever parsed must re-serialize without issue.
      message->Serialize();
    }
  }
}

TEST_P(FuzzTest, MicroDecodeNeverCrashes) {
  for (int i = 0; i < 200; ++i) {
    const std::vector<uint8_t> bytes = RandomBytes(&rng_, kMicroMaxWireSize + 8);
    MicroMessage out;
    (void)MicroDecode(bytes.data(), bytes.size(), &out);
  }
}

TEST_P(FuzzTest, AttributeVectorDeserializeNeverCrashes) {
  for (int i = 0; i < 200; ++i) {
    const std::vector<uint8_t> bytes = RandomBytes(&rng_, 200);
    ByteReader reader(bytes);
    (void)DeserializeAttributes(&reader);
  }
}

TEST_P(FuzzTest, CorruptedValidMessagesRejectedOrReparsed) {
  // Start from a valid message and flip bytes: either the parse fails
  // cleanly or yields another well-formed message.
  Message message;
  message.type = MessageType::kInterest;
  message.origin = 9;
  message.origin_seq = 100;
  message.attrs = {
      ClassIs(kClassInterest),
      Attribute::String(kKeyType, AttrOp::kEq, "surveillance"),
      Attribute::Float64(kKeyConfidence, AttrOp::kGt, 0.5),
  };
  const std::vector<uint8_t> clean = message.Serialize();
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> corrupted = clean;
    const int flips = static_cast<int>(rng_.NextInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng_.NextInt(0, static_cast<int64_t>(corrupted.size()) - 1));
      corrupted[at] = static_cast<uint8_t>(rng_.Next());
    }
    const auto parsed = Message::Deserialize(corrupted);
    if (parsed.has_value()) {
      parsed->Serialize();
      (void)TwoWayMatch(parsed->attrs, message.attrs);
    }
  }
}

// Matching algebra properties over random sets.
TEST_P(FuzzTest, AddingActualsPreservesOneWayMatch) {
  for (int trial = 0; trial < 50; ++trial) {
    AttributeVector a;
    AttributeVector b;
    const int n = static_cast<int>(rng_.NextInt(0, 6));
    for (int i = 0; i < n; ++i) {
      a.push_back(Attribute::Int32(static_cast<AttrKey>(rng_.NextInt(1, 4)),
                                   static_cast<AttrOp>(rng_.NextInt(0, 7)),
                                   static_cast<int32_t>(rng_.NextInt(0, 3))));
      b.push_back(Attribute::Int32(static_cast<AttrKey>(rng_.NextInt(1, 4)), AttrOp::kIs,
                                   static_cast<int32_t>(rng_.NextInt(0, 3))));
    }
    const bool before = OneWayMatch(a, b);
    // Extra actuals in B can only help A's formals, never hurt.
    AttributeVector b_more = b;
    b_more.push_back(Attribute::Int32(static_cast<AttrKey>(rng_.NextInt(1, 4)), AttrOp::kIs,
                                      static_cast<int32_t>(rng_.NextInt(0, 3))));
    if (before) {
      EXPECT_TRUE(OneWayMatch(a, b_more));
    }
    // Extra formals in A can only add requirements, never remove them.
    AttributeVector a_more = a;
    a_more.push_back(Attribute::Int32(static_cast<AttrKey>(rng_.NextInt(1, 4)), AttrOp::kEq,
                                      static_cast<int32_t>(rng_.NextInt(0, 3))));
    if (!before) {
      EXPECT_FALSE(OneWayMatch(a_more, b));
    }
  }
}

TEST_P(FuzzTest, FragmentationRoundTripRandomSizes) {
  Arena arena;
  SlotPool pool(&arena);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t size = static_cast<size_t>(rng_.NextInt(0, 400));
    const size_t max_payload = static_cast<size_t>(rng_.NextInt(1, 64));
    std::vector<uint8_t> payload(size);
    for (uint8_t& byte : payload) {
      byte = static_cast<uint8_t>(rng_.Next());
    }
    auto fragments = SplitBytes(&pool, 3, 9, static_cast<uint32_t>(trial), payload, max_payload);
    // Deliver in random order.
    for (size_t i = fragments.size(); i > 1; --i) {
      std::swap(fragments[i - 1],
                fragments[static_cast<size_t>(rng_.NextInt(0, static_cast<int64_t>(i) - 1))]);
    }
    Reassembler reassembler(kSecond);
    std::optional<Reassembler::Completed> completed;
    for (const Fragment& fragment : fragments) {
      auto result = reassembler.Add(fragment, 0);
      if (result.has_value()) {
        completed = std::move(result);
      }
    }
    ASSERT_TRUE(completed.has_value());
    EXPECT_EQ(BodyBytes(*completed->body), payload);
  }
}

TEST_P(FuzzTest, InternerRoundTripsRandomStrings) {
  Interner interner;
  std::vector<std::string> inserted;
  for (int i = 0; i < 400; ++i) {
    std::string name(static_cast<size_t>(rng_.NextInt(0, 24)), '\0');
    for (char& c : name) {
      // Include NUL and high bytes: the interner must treat names as opaque.
      c = static_cast<char>(rng_.Next());
    }
    const InternId id = interner.Intern(name);
    EXPECT_EQ(interner.Intern(name), id);  // stable on repeat
    EXPECT_EQ(interner.NameOf(id), name);
    ASSERT_TRUE(interner.Find(name).has_value());
    EXPECT_EQ(*interner.Find(name), id);
    inserted.push_back(std::move(name));
  }
  // Ids are dense: size equals the number of distinct names, and every
  // earlier name still round-trips after later insertions (no invalidation).
  std::vector<std::string> distinct = inserted;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_EQ(interner.size(), distinct.size());
  for (const std::string& name : inserted) {
    ASSERT_TRUE(interner.Find(name).has_value());
    EXPECT_EQ(interner.NameOf(*interner.Find(name)), name);
  }
}

TEST_P(FuzzTest, MatchIndexChurnAgreesWithFullScan) {
  // Random insert/erase/query churn across every formal kind the index
  // classifies; candidates must always cover the full-scan matches and never
  // repeat.
  MatchIndex index(kKeyConfidence);
  std::vector<AttributeSet> storage;
  storage.reserve(1024);
  std::vector<std::pair<uint32_t, const AttributeSet*>> live;
  uint32_t next_id = 1;
  auto random_value = [&]() -> double {
    switch (rng_.NextInt(0, 6)) {
      case 0: return -std::numeric_limits<double>::infinity();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -0.0;
      case 3: return 0.0;
      case 4: return std::numeric_limits<double>::quiet_NaN();
      default: return static_cast<double>(rng_.NextInt(-40, 40)) / 4.0;
    }
  };
  for (int step = 0; step < 300; ++step) {
    const int action = static_cast<int>(rng_.NextInt(0, 9));
    if (action < 5 && storage.size() < storage.capacity()) {
      AttributeVector attrs;
      const int formals = static_cast<int>(rng_.NextInt(0, 2));
      for (int f = 0; f < formals; ++f) {
        attrs.push_back(Attribute::Float64(
            kKeyConfidence, static_cast<AttrOp>(rng_.NextInt(0, 7)), random_value()));
      }
      storage.emplace_back(std::move(attrs));
      const uint32_t id = next_id++;
      ASSERT_TRUE(index.Insert(id, 0, &storage.back()));
      live.emplace_back(id, &storage.back());
    } else if (action < 7 && !live.empty()) {
      const size_t at = static_cast<size_t>(rng_.NextInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(index.Erase(live[at].first));
      live[at] = live.back();
      live.pop_back();
    } else {
      AttributeVector message;
      const int actuals = static_cast<int>(rng_.NextInt(0, 3));
      for (int a = 0; a < actuals; ++a) {
        message.push_back(Attribute::Float64(kKeyConfidence, AttrOp::kIs, random_value()));
      }
      std::vector<uint32_t> candidates;
      index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) {
        candidates.push_back(entry.id);
      });
      std::sort(candidates.begin(), candidates.end());
      ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) == candidates.end())
          << "duplicate candidate at step " << step;
      for (const auto& [id, attrs] : live) {
        if (OneWayMatch(*attrs, message)) {
          ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(), id))
              << "lost match for entry " << id << " at step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace diffusion
