// The match1m_churn oracle: the index's confirmed matches must equal a full
// scan of the live corpus, before and after churn, and a wrong answer must
// be caught.

#include <algorithm>
#include <vector>

#include "cc/churn.h"
#include "gtest/gtest.h"

namespace perfbench {
namespace {

constexpr size_t kCorpus = 20000;

std::vector<uint32_t> Dispatch(const ChurnIndex& index, const diffusion::AttributeSet& reading) {
  std::vector<const diffusion::MatchIndexEntry*> candidates;
  std::vector<uint32_t> matched;
  index.Walk(reading, &candidates);
  ChurnIndex::Confirm(reading, candidates, &matched);
  return matched;
}

TEST(ChurnOracle, IndexAgreesWithFullScanThroughChurn) {
  ChurnIndex index(MakeCorpus(5, kCorpus));
  ChurnInputs inputs(6);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 25; ++i) {
      const diffusion::AttributeSet reading = inputs.Reading();
      const std::vector<uint32_t> expected = index.FullScan(reading);
      EXPECT_FALSE(expected.empty());
      EXPECT_TRUE(CheckMatches(Dispatch(index, reading), expected).exact);
    }
    for (int i = 0; i < 2000; ++i) {
      const size_t slot = inputs.Slot(index.size());
      ASSERT_TRUE(index.EraseSlot(slot));
      ASSERT_TRUE(index.InsertSlot(slot, inputs.Subscription()));
    }
  }
}

TEST(ChurnOracle, WrongAnswersFail) {
  ChurnIndex index(MakeCorpus(7, kCorpus));
  ChurnInputs inputs(8);
  const diffusion::AttributeSet reading = inputs.Reading();
  const std::vector<uint32_t> expected = index.FullScan(reading);
  std::vector<uint32_t> matched = Dispatch(index, reading);
  ASSERT_GE(matched.size(), 2u);
  ASSERT_TRUE(CheckMatches(matched, expected).exact);
  EXPECT_EQ(CheckMatches(matched, expected).delivered, expected.size());

  std::vector<uint32_t> missing = matched;
  missing.pop_back();
  EXPECT_FALSE(CheckMatches(missing, expected).exact);
  EXPECT_EQ(CheckMatches(missing, expected).delivered, expected.size() - 1);

  std::vector<uint32_t> extra = matched;
  extra.push_back(static_cast<uint32_t>(kCorpus + 1000));
  EXPECT_FALSE(CheckMatches(extra, expected).exact);

  std::vector<uint32_t> duplicated = matched;
  duplicated.back() = duplicated.front();
  EXPECT_FALSE(CheckMatches(duplicated, expected).exact);

  // An index that lost an entry: its dispatches no longer match the scan.
  const uint32_t lost = matched.front();
  const auto slot = static_cast<size_t>(lost - 1);  // the corpus fills slot i with id i + 1
  ASSERT_TRUE(index.EraseSlot(slot));
  EXPECT_FALSE(CheckMatches(Dispatch(index, reading), expected).exact);
}

TEST(ChurnInputs, EveryRoundOfReadingsCoversEachStratumOnce) {
  ChurnInputs inputs(9);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> hits(ChurnInputs::kStrata);
    for (size_t i = 0; i < ChurnInputs::kStrata; ++i) {
      const double value = inputs.Reading()[0].AsDouble().value();
      ASSERT_GE(value, 0.0);
      ASSERT_LT(value, 1e6);
      ++hits[static_cast<size_t>(value / (1e6 / ChurnInputs::kStrata))];
    }
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), static_cast<long>(ChurnInputs::kStrata));
  }
}

TEST(ChurnInputs, SameSeedSameCorpus) {
  const ChurnIndex a(MakeCorpus(11, 2000));
  const ChurnIndex b(MakeCorpus(11, 2000));
  const ChurnIndex c(MakeCorpus(12, 2000));
  ChurnInputs inputs(13);
  bool differs = false;
  for (int i = 0; i < 20; ++i) {
    const diffusion::AttributeSet reading = inputs.Reading();
    EXPECT_EQ(a.FullScan(reading), b.FullScan(reading));
    differs = differs || a.FullScan(reading) != c.FullScan(reading);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace perfbench
