// MatchIndex at the unit level: the interval/endpoint/NE classification, the
// at-most-once ForEachCandidate contract, position-map erasure under churn,
// and randomized index-vs-full-scan equivalence over inequality-heavy
// corpora (the node-level randomization in api_misuse_test biases EQ).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/core/match_index.h"
#include "src/naming/attribute_set.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

constexpr AttrKey kKey = kKeyConfidence;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

AttributeSet Range(double lo, double hi) {
  return {Attribute::Float64(kKey, AttrOp::kGe, lo), Attribute::Float64(kKey, AttrOp::kLe, hi)};
}

AttributeSet Actual(double v) { return {Attribute::Float64(kKey, AttrOp::kIs, v)}; }

// `prefix` followed by `n`. Appended rather than `prefix + std::to_string(n)`,
// which trips a gcc 12 -Werror=restrict false positive at -O3.
std::string Numbered(const char* prefix, int64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

// Collects the candidate ids ForEachCandidate offers for `message`.
std::vector<uint32_t> Candidates(const MatchIndex& index, const AttributeSet& message) {
  std::vector<uint32_t> ids;
  index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) { ids.push_back(entry.id); });
  return ids;
}

// The true match set, by full scan over the stored sets.
std::vector<uint32_t> FullScan(const std::vector<AttributeSet>& entries,
                               const AttributeSet& message) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (OneWayMatch(entries[i], message)) {
      ids.push_back(static_cast<uint32_t>(i));
    }
  }
  return ids;
}

// The index contract: candidates ⊇ true matches, and no id offered twice.
void ExpectSoundAndDeduped(const std::vector<AttributeSet>& entries, const MatchIndex& index,
                           const AttributeSet& message, const char* context) {
  std::vector<uint32_t> candidates = Candidates(index, message);
  std::vector<uint32_t> sorted = candidates;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << context << ": duplicate candidate visit";
  for (uint32_t id : FullScan(entries, message)) {
    ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(), id))
        << context << ": candidate set lost true match id " << id << " for message "
        << message.ToString();
  }
}

// ---- encoding helpers ----

TEST(MatchIndexTest, OrderedBitsIsMonotone) {
  const double values[] = {-kInf, -1e300, -2.5, -1.0, -1e-300, 0.0, 1e-300, 1.0, 2.5, 1e300, kInf};
  for (size_t i = 1; i < std::size(values); ++i) {
    EXPECT_LT(MatchIndex::OrderedBits(values[i - 1]), MatchIndex::OrderedBits(values[i]));
  }
  // -0.0 and +0.0 compare equal as doubles, so they must share one code.
  EXPECT_EQ(MatchIndex::OrderedBits(-0.0), MatchIndex::OrderedBits(0.0));
}

// ---- classification coverage: every group type round-trips a match ----

TEST(MatchIndexTest, IntervalEntriesFoundByStabbingActual) {
  std::vector<AttributeSet> entries;
  entries.push_back(Range(10.0, 20.0));
  entries.push_back(Range(15.0, 30.0));
  entries.push_back(Range(100.0, 200.0));
  entries.push_back(Range(-kInf, kInf));  // spans the sign bit: root node
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  for (double v : {9.9, 10.0, 12.0, 15.0, 20.0, 20.1, 150.0, -5.0}) {
    ExpectSoundAndDeduped(entries, index, Actual(v), "interval stab");
  }
}

TEST(MatchIndexTest, TwoFormalsSatisfiedByDifferentActuals) {
  // OneWayMatch semantics: each formal needs SOME actual — not the same
  // one. Actuals {-5, 25} satisfy GE 10 (via 25) and LE 20 (via -5) even
  // though neither lies in [10, 20]. The index must still offer the entry.
  std::vector<AttributeSet> entries;
  entries.push_back(Range(10.0, 20.0));
  MatchIndex index(kKey);
  ASSERT_TRUE(index.Insert(0, 0, &entries[0]));
  const AttributeSet message = {Attribute::Float64(kKey, AttrOp::kIs, -5.0),
                                Attribute::Float64(kKey, AttrOp::kIs, 25.0)};
  ASSERT_TRUE(OneWayMatch(entries[0], message));
  ExpectSoundAndDeduped(entries, index, message, "split actuals");
}

TEST(MatchIndexTest, ContradictoryBoundsStillMatchable) {
  // GE 20 and LE 10 look empty as an interval but are jointly satisfiable
  // by two actuals spanning the gap.
  std::vector<AttributeSet> entries;
  entries.push_back(Range(20.0, 10.0));
  MatchIndex index(kKey);
  ASSERT_TRUE(index.Insert(0, 0, &entries[0]));
  const AttributeSet spanning = {Attribute::Float64(kKey, AttrOp::kIs, 5.0),
                                 Attribute::Float64(kKey, AttrOp::kIs, 25.0)};
  ASSERT_TRUE(OneWayMatch(entries[0], spanning));
  ExpectSoundAndDeduped(entries, index, spanning, "contradictory bounds");
}

TEST(MatchIndexTest, StrictBoundsExcludeEndpoints) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGt, 10.0),
                     Attribute::Float64(kKey, AttrOp::kLt, 20.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGt, 10.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kLt, 20.0)});
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  for (double v : {10.0, 10.0000001, 15.0, 19.9999999, 20.0}) {
    ExpectSoundAndDeduped(entries, index, Actual(v), "strict bounds");
  }
  // The endpoint scans are exact for single-sided entries: a GT 10 entry
  // must not be offered for an actual of exactly 10.
  const std::vector<uint32_t> at_ten = Candidates(index, Actual(10.0));
  EXPECT_TRUE(std::find(at_ten.begin(), at_ten.end(), 1u) == at_ten.end());
}

TEST(MatchIndexTest, NeGroupsSkipOnlyTheUniformValue) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 5.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 7.0)});
  entries.push_back({Attribute::String(kKey, AttrOp::kNe, "red")});
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // Single actual 5.0: NE 5 unsatisfiable, NE 7 satisfiable.
  std::vector<uint32_t> c = Candidates(index, Actual(5.0));
  EXPECT_TRUE(std::find(c.begin(), c.end(), 0u) == c.end());
  EXPECT_TRUE(std::find(c.begin(), c.end(), 1u) != c.end());
  // Two distinct actuals 5.0 and 7.0: both NE entries satisfiable.
  const AttributeSet both = {Attribute::Float64(kKey, AttrOp::kIs, 5.0),
                             Attribute::Float64(kKey, AttrOp::kIs, 7.0)};
  ExpectSoundAndDeduped(entries, index, both, "two distinct NE actuals");
  // String NE: "red" actual kills entry 2; "blue" keeps it.
  const AttributeSet red = {Attribute::String(kKey, AttrOp::kIs, "red")};
  const AttributeSet blue = {Attribute::String(kKey, AttrOp::kIs, "blue")};
  ExpectSoundAndDeduped(entries, index, red, "NE red");
  ExpectSoundAndDeduped(entries, index, blue, "NE blue");
}

TEST(MatchIndexTest, NeGroupsReleasedWhenTheirLastEntryLeaves) {
  // Churn through unique NE constants, numeric and string, as per-request
  // subscriptions would. Each erase must drop its value's group, or every
  // later dispatch keeps walking a map of empty groups.
  const AttributeSet keep = {Attribute::Float64(kKey, AttrOp::kEq, 1.0)};
  MatchIndex index(kKey);
  ASSERT_TRUE(index.Insert(0, 0, &keep));
  ASSERT_EQ(index.group_count(), 1u);
  std::vector<AttributeSet> storage;
  storage.reserve(400);
  for (int round = 0; round < 4; ++round) {
    const size_t first = storage.size();
    for (int i = 0; i < 50; ++i) {
      const int value = round * 50 + i;
      storage.push_back({Attribute::Float64(kKey, AttrOp::kNe, static_cast<double>(value))});
      storage.push_back({Attribute::String(kKey, AttrOp::kNe, Numbered("req-", value))});
    }
    for (size_t slot = first; slot < storage.size(); ++slot) {
      ASSERT_TRUE(index.Insert(static_cast<uint32_t>(slot + 1), 0, &storage[slot]));
    }
    EXPECT_EQ(index.group_count(), 1u + 100u);
    // Every NE entry is a candidate for an actual that differs from it.
    EXPECT_EQ(Candidates(index, Actual(-1.0)).size(), 50u);
    for (size_t slot = first; slot < storage.size(); ++slot) {
      ASSERT_TRUE(index.Erase(static_cast<uint32_t>(slot + 1)));
    }
    // Only the EQ bucket is left: no empty NE group survives to be walked.
    EXPECT_EQ(index.group_count(), 1u);
    EXPECT_EQ(index.size(), 1u);
    EXPECT_EQ(Candidates(index, Actual(1.0)), std::vector<uint32_t>{0});
  }
  ASSERT_TRUE(index.Erase(0));
  EXPECT_EQ(index.group_count(), 0u);
}

TEST(MatchIndexTest, NanActualSatisfiesNeButNothingElse) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 5.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kEq, 5.0)});
  entries.push_back(Range(0.0, 10.0));
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // NaN != 5.0 is true, so the NE entry matches and must be offered.
  ExpectSoundAndDeduped(entries, index, Actual(kNaN), "NaN actual");
  // NaN bounds are unsatisfiable; the entry lands in any_ (still offered —
  // conservatively — whenever an actual on the key exists).
  std::vector<AttributeSet> nan_bound;
  nan_bound.push_back({Attribute::Float64(kKey, AttrOp::kGe, kNaN)});
  MatchIndex index2(kKey);
  ASSERT_TRUE(index2.Insert(0, 0, &nan_bound[0]));
  ExpectSoundAndDeduped(nan_bound, index2, Actual(3.0), "NaN bound");
}

TEST(MatchIndexTest, NegativeZeroAndPositiveZeroAgree) {
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Float64(kKey, AttrOp::kEq, -0.0)});
  entries.push_back(Range(-0.0, 0.0));
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGe, 0.0)});
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  ExpectSoundAndDeduped(entries, index, Actual(0.0), "+0 actual");
  ExpectSoundAndDeduped(entries, index, Actual(-0.0), "-0 actual");
}

TEST(MatchIndexTest, MixedNumericTypesShareBuckets) {
  // An int32 formal and a float64 actual that compare equal must meet.
  std::vector<AttributeSet> entries;
  entries.push_back({Attribute::Int32(kKey, AttrOp::kEq, 42)});
  entries.push_back(
      {Attribute::Int32(kKey, AttrOp::kGe, 40), Attribute::Int32(kKey, AttrOp::kLe, 50)});
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  ExpectSoundAndDeduped(entries, index, Actual(42.0), "float actual, int formal");
}

// ---- the duplicate-visit satellite ----

TEST(MatchIndexTest, DuplicateActualsVisitEachEntryOnce) {
  std::vector<AttributeSet> entries;
  entries.push_back({ClassEq(kClassData)});
  entries.push_back({Attribute::Int32(kKeyClass, AttrOp::kNe, 99)});
  MatchIndex index(kKeyClass);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // Three copies of the same actual used to mean three bucket visits.
  const AttributeSet message = {ClassIs(kClassData), ClassIs(kClassData), ClassIs(kClassData)};
  std::map<uint32_t, int> visits;
  index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) { ++visits[entry.id]; });
  for (const auto& [id, count] : visits) {
    EXPECT_EQ(count, 1) << "entry " << id << " visited " << count << " times";
  }
  EXPECT_EQ(visits.count(0u), 1u);
}

// ---- Erase satellites ----

TEST(MatchIndexTest, EraseUnknownIdReturnsFalse) {
  MatchIndex index(kKeyClass);
  EXPECT_FALSE(index.Erase(7));
  AttributeSet attrs = {ClassEq(kClassData)};
  ASSERT_TRUE(index.Insert(1, 0, &attrs));
  EXPECT_FALSE(index.Erase(2));
  EXPECT_TRUE(index.Erase(1));
  EXPECT_FALSE(index.Erase(1));  // double erase
  EXPECT_EQ(index.size(), 0u);
}

TEST(MatchIndexTest, DuplicateInsertRejected) {
  MatchIndex index(kKeyClass);
  AttributeSet attrs = {ClassEq(kClassData)};
  EXPECT_TRUE(index.Insert(1, 0, &attrs));
  EXPECT_FALSE(index.Insert(1, 5, &attrs));
  EXPECT_EQ(index.size(), 1u);
}

TEST(MatchIndexTest, EraseWorksAfterAttrsMutatedWhileIndexed) {
  // Regression: the old Erase re-classified from the (now mutated) attrs,
  // missed the entry's real group, silently no-opped, and left a dangling
  // MatchIndexEntry. Erase-by-id must find it regardless.
  MatchIndex index(kKeyClass);
  AttributeSet attrs = {ClassEq(kClassData)};
  ASSERT_TRUE(index.Insert(1, 0, &attrs));
  attrs.RemoveKey(kKeyClass);  // re-classification would now say "unconstrained"
  attrs.push_back(ClassEq(kClassInterest));  // ...or a different bucket
  EXPECT_TRUE(index.Erase(1));
  EXPECT_EQ(index.size(), 0u);
  // No dangling entry: nothing may be offered for any message.
  AttributeSet probe = {ClassIs(kClassData)};
  EXPECT_TRUE(Candidates(index, probe).empty());
  probe = AttributeSet{ClassIs(kClassInterest)};
  EXPECT_TRUE(Candidates(index, probe).empty());
}

TEST(MatchIndexTest, SwapAndPopKeepsPositionsConsistentUnderChurn) {
  // Many entries in one bucket, erased in random order: every erase must
  // succeed and the survivors must stay findable (the swap-and-pop slot
  // fixup is what this exercises).
  Rng rng(7);
  std::vector<AttributeSet> entries;
  entries.reserve(64);
  for (int i = 0; i < 64; ++i) {
    entries.push_back({ClassEq(kClassData)});
  }
  MatchIndex index(kKeyClass);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  std::vector<uint32_t> order(64);
  for (uint32_t i = 0; i < 64; ++i) {
    order[i] = i;
  }
  for (size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  const AttributeSet probe = {ClassIs(kClassData)};
  std::vector<bool> alive(64, true);
  for (uint32_t victim : order) {
    ASSERT_TRUE(index.Erase(victim));
    alive[victim] = false;
    std::vector<uint32_t> ids = Candidates(index, probe);
    std::sort(ids.begin(), ids.end());
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < 64; ++i) {
      if (alive[i]) {
        expected.push_back(i);
      }
    }
    ASSERT_EQ(ids, expected);
  }
  EXPECT_EQ(index.size(), 0u);
}

// ---- randomized equivalence over inequality-heavy and mixed corpora ----

Attribute RandomKeyFormal(Rng* rng) {
  // Heavy on inequality operators; values from a small grid so boundary
  // collisions (EQ vs GE of the same value, etc.) actually happen.
  const AttrOp op = static_cast<AttrOp>(rng->NextInt(1, 7));  // kEq..kEqAny
  switch (rng->NextInt(0, 4)) {
    case 0:
      return Attribute::Float64(kKey, op, static_cast<double>(rng->NextInt(0, 20)));
    case 1:
      return Attribute::Int32(kKey, op, static_cast<int32_t>(rng->NextInt(0, 20)));
    case 2:
      return Attribute::String(kKey, op, Numbered("s", rng->NextInt(0, 5)));
    case 3: {
      const double specials[] = {-kInf, kInf, kNaN, -0.0, 1e308, -1e308, 1e-308};
      return Attribute::Float64(kKey, op, specials[rng->NextInt(0, 6)]);
    }
    default:
      return Attribute::Blob(kKey, op, {static_cast<uint8_t>(rng->NextInt(0, 3))});
  }
}

Attribute RandomKeyActual(Rng* rng) {
  switch (rng->NextInt(0, 3)) {
    case 0:
      return Attribute::Float64(kKey, AttrOp::kIs, static_cast<double>(rng->NextInt(0, 20)));
    case 1:
      return Attribute::Int32(kKey, AttrOp::kIs, static_cast<int32_t>(rng->NextInt(0, 20)));
    case 2:
      return Attribute::String(kKey, AttrOp::kIs, Numbered("s", rng->NextInt(0, 5)));
    default: {
      const double specials[] = {-kInf, kInf, kNaN, -0.0, 1e308, -1e308};
      return Attribute::Float64(kKey, AttrOp::kIs, specials[rng->NextInt(0, 5)]);
    }
  }
}

TEST(MatchIndexTest, RandomizedInequalityCorpusNeverLosesAMatch) {
  Rng rng(12345);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<AttributeSet> entries;
    const int n = static_cast<int>(rng.NextInt(1, 40));
    for (int i = 0; i < n; ++i) {
      AttributeVector attrs;
      const int formals = static_cast<int>(rng.NextInt(0, 3));
      for (int f = 0; f < formals; ++f) {
        attrs.push_back(RandomKeyFormal(&rng));
      }
      if (rng.NextBool(0.3)) {
        attrs.push_back(Attribute::Int32(kKeyTask, AttrOp::kEq, 1));  // off-key formal
      }
      entries.push_back(AttributeSet(std::move(attrs)));
    }
    MatchIndex index(kKey);
    for (size_t i = 0; i < entries.size(); ++i) {
      ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
    }
    for (int m = 0; m < 8; ++m) {
      AttributeVector message_attrs;
      const int actuals = static_cast<int>(rng.NextInt(0, 4));
      for (int a = 0; a < actuals; ++a) {
        message_attrs.push_back(RandomKeyActual(&rng));
      }
      if (rng.NextBool(0.3)) {
        message_attrs.push_back(Attribute::Int32(kKeyTask, AttrOp::kIs, 1));
      }
      const AttributeSet message(std::move(message_attrs));
      ExpectSoundAndDeduped(entries, index, message, "randomized corpus");
    }
  }
}

TEST(MatchIndexTest, RandomizedChurnKeepsIndexConsistent) {
  // Interleaved inserts, erases and queries: after every mutation the
  // candidate sets must still cover the full scan of live entries.
  Rng rng(999);
  std::vector<AttributeSet> storage;  // stable via reserve
  storage.reserve(512);
  std::map<uint32_t, size_t> live;  // id -> storage slot
  MatchIndex index(kKey);
  uint32_t next_id = 0;
  for (int step = 0; step < 600; ++step) {
    const bool do_insert = live.empty() || rng.NextBool(0.55);
    if (do_insert && storage.size() < storage.capacity()) {
      AttributeVector attrs;
      const int formals = static_cast<int>(rng.NextInt(0, 2));
      for (int f = 0; f < formals; ++f) {
        attrs.push_back(RandomKeyFormal(&rng));
      }
      storage.push_back(AttributeSet(std::move(attrs)));
      const uint32_t id = next_id++;
      ASSERT_TRUE(index.Insert(id, 0, &storage.back()));
      live[id] = storage.size() - 1;
    } else if (!live.empty()) {
      auto victim = live.begin();
      std::advance(victim, rng.NextInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(index.Erase(victim->first));
      live.erase(victim);
    }
    ASSERT_EQ(index.size(), live.size());
    ASSERT_LE(index.group_count(), index.size()) << "an empty group outlived its entries";
    if (step % 10 == 0) {
      AttributeVector message_attrs;
      const int actuals = static_cast<int>(rng.NextInt(0, 3));
      for (int a = 0; a < actuals; ++a) {
        message_attrs.push_back(RandomKeyActual(&rng));
      }
      const AttributeSet message(std::move(message_attrs));
      std::vector<uint32_t> candidates = Candidates(index, message);
      std::sort(candidates.begin(), candidates.end());
      ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) == candidates.end());
      for (const auto& [id, slot] : live) {
        if (OneWayMatch(storage[slot], message)) {
          ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(), id))
              << "lost id " << id << " at step " << step;
        }
      }
    }
  }
}


// ---- trie visit order and level release ----

// `base` moved up by `ulps` units in the last place (`base` > 0, no
// exponent crossing): interval endpoints whose OrderedBits codes differ by
// exactly the chosen bits, so each interval's trie level is known.
double Ulps(double base, uint64_t ulps) {
  uint64_t bits;
  std::memcpy(&bits, &base, sizeof(bits));
  bits += ulps;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Pins the exact candidate sequence ForEachCandidate produces over a fixed
// interval-heavy corpus, so a change to the trie's storage cannot reorder
// dispatch (and with it every downstream output) unnoticed.
TEST(MatchIndexTest, TrieVisitOrderIsPinned) {
  const auto u = [](uint64_t ulps) { return Ulps(1.0, ulps); };
  std::vector<AttributeSet> entries;
  entries.push_back(Range(u(0), u(0)));       // level 0
  entries.push_back(Range(u(0), u(1)));       // level 1
  entries.push_back(Range(u(2), u(3)));       // level 1, next node
  entries.push_back(Range(u(4), u(7)));       // level 2
  entries.push_back(Range(u(8), u(15)));      // level 3
  entries.push_back(Range(u(5), u(9)));       // level 4
  entries.push_back(Range(u(16), u(47)));     // level 6
  entries.push_back(Range(u(100), u(200)));   // level 8
  entries.push_back(Range(u(1000), u(1030)));  // level 11
  entries.push_back(Range(u(3), u(70000)));   // level 17
  entries.push_back(Range(10.0, 20.0));
  entries.push_back(Range(15.0, 30.0));
  entries.push_back(Range(100.0, 200.0));
  entries.push_back(Range(0.5, 0.75));
  entries.push_back(Range(1e6, 2e6));
  entries.push_back(Range(-3.0, -2.0));
  entries.push_back(Range(-100.0, -1.0));
  entries.push_back(Range(-5.0, 5.0));  // spans the sign bit: root
  entries.push_back(Range(20.0, 10.0));  // contradictory: the swapped gap
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGt, 12.0),
                     Attribute::Float64(kKey, AttrOp::kLt, 18.0)});
  entries.push_back(Range(u(0), u(1)));  // shares entry 1's node
  entries.push_back({Attribute::Float64(kKey, AttrOp::kEq, 12.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kGe, 150.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kLe, -50.0)});
  entries.push_back({Attribute::Float64(kKey, AttrOp::kNe, 3.0)});
  entries.push_back(Range(u(6), u(6)));  // level 0, another node

  std::vector<int> levels;
  for (const AttributeSet& entry : entries) {
    const AttributeVector& items = entry.items();
    const bool plain_range =
        items.size() == 2 && items[0].op() != items[1].op() &&
        std::all_of(items.begin(), items.end(), [](const Attribute& attr) {
          return attr.op() == AttrOp::kGe || attr.op() == AttrOp::kLe;
        });
    if (plain_range) {
      const uint64_t a = MatchIndex::OrderedBits(*items[0].AsDouble());
      const uint64_t b = MatchIndex::OrderedBits(*items[1].AsDouble());
      const int level = std::bit_width(a ^ b);
      if (level < 64) {
        levels.push_back(level);
      }
    }
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  ASSERT_GE(levels.size(), 8u) << "the corpus must span at least 8 trie levels";

  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  // Churn a few so swap-and-pop and group release shape the order too.
  ASSERT_TRUE(index.Erase(1));
  ASSERT_TRUE(index.Erase(7));
  ASSERT_TRUE(index.Erase(15));
  ASSERT_TRUE(index.Insert(1, 0, &entries[1]));
  ASSERT_TRUE(index.Insert(15, 0, &entries[15]));

  const auto pair = [](double a, double b) {
    return AttributeSet{Attribute::Float64(kKey, AttrOp::kIs, a),
                        Attribute::Float64(kKey, AttrOp::kIs, b)};
  };
  const std::vector<AttributeSet> queries = {
      // Stabbing queries.
      Actual(u(0)), Actual(u(6)), Actual(u(101)), Actual(u(1010)), Actual(12.0),
      Actual(150.0), Actual(-2.5), Actual(1.5e6), Actual(0.6), Actual(-60.0),
      // Range queries.
      pair(u(3), u(20)), pair(u(90), u(1100)), pair(10.0, 25.0), pair(-4.0, 1.5e6),
      pair(0.0, 1.0), pair(-kInf, kInf)};
  const std::vector<std::vector<uint32_t>> expected = {
      {17, 0, 20, 1, 5, 6, 8, 9, 24},
      {17, 25, 3, 5, 6, 8, 9, 24},
      {17, 8, 9, 24},
      {17, 8, 9, 24},
      {21, 17, 10, 11, 18, 19, 24},
      {22, 17, 12, 24},
      {17, 15, 16, 24},
      {22, 17, 14, 24},
      {17, 13, 24},
      {23, 17, 16, 24},
      {17, 25, 2, 3, 4, 5, 6, 8, 9, 24},
      {17, 8, 9, 24},
      {17, 10, 11, 18, 19, 24},
      {22, 17, 0, 25, 20, 1, 2, 3, 4, 5, 6, 8, 9, 15, 13, 14, 10, 11, 18, 19, 12, 16, 24},
      {17, 0, 20, 1, 5, 6, 8, 9, 13, 24},
      {22, 23, 17, 0, 25, 20, 1, 2, 3, 4, 5, 6, 8, 9, 15, 13, 10, 11, 18, 19, 14, 12, 16, 24},
  };
  ASSERT_EQ(queries.size(), expected.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Candidates(index, queries[q]), expected[q]) << "query " << q << ": "
                                                           << queries[q].ToString();
  }
}

TEST(MatchIndexTest, TrieLevelReleasedOnlyWithItsLastNode) {
  const auto u = [](uint64_t ulps) { return Ulps(1.0, ulps); };
  // Two intervals at level 2 (separate nodes), one spanning the sign bit
  // (the root, which group_count() does not hold).
  std::vector<AttributeSet> entries;
  entries.push_back(Range(u(0), u(3)));
  entries.push_back(Range(u(4), u(7)));
  entries.push_back(Range(-kInf, kInf));
  MatchIndex index(kKey);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<uint32_t>(i), 0, &entries[i]));
  }
  EXPECT_EQ(index.group_count(), 2u);
  ASSERT_TRUE(index.Erase(0));
  EXPECT_EQ(index.group_count(), 1u);
  EXPECT_EQ(Candidates(index, Actual(u(5))), (std::vector<uint32_t>{2, 1}));
  EXPECT_EQ(Candidates(index, Actual(u(1))), std::vector<uint32_t>{2});
  ASSERT_TRUE(index.Erase(1));
  EXPECT_EQ(index.group_count(), 0u);
  EXPECT_EQ(Candidates(index, Actual(u(5))), std::vector<uint32_t>{2});

  // Emptying level 2 must not drop level 3 beside it, nor the other way.
  entries.push_back(Range(u(0), u(3)));   // level 2
  entries.push_back(Range(u(8), u(15)));  // level 3
  ASSERT_TRUE(index.Insert(3, 0, &entries[3]));
  ASSERT_TRUE(index.Insert(4, 0, &entries[4]));
  EXPECT_EQ(index.group_count(), 2u);
  ASSERT_TRUE(index.Erase(3));
  EXPECT_EQ(index.group_count(), 1u);
  EXPECT_EQ(Candidates(index, Actual(u(9))), (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(Candidates(index, Actual(u(1))), std::vector<uint32_t>{2});
  ASSERT_TRUE(index.Insert(3, 0, &entries[3]));
  ASSERT_TRUE(index.Erase(4));
  EXPECT_EQ(index.group_count(), 1u);
  EXPECT_EQ(Candidates(index, Actual(u(1))), (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(Candidates(index, Actual(u(9))), std::vector<uint32_t>{2});
}

}  // namespace
}  // namespace diffusion
