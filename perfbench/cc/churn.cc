#include "cc/churn.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/naming/keys.h"
#include "src/naming/matching.h"

namespace perfbench {

using diffusion::AttrOp;
using diffusion::Attribute;
using diffusion::AttributeSet;
using diffusion::kKeyConfidence;

ChurnInputs::ChurnInputs(uint64_t seed) : rng_(seed), strata_(kStrata), next_stratum_(kStrata) {
  for (size_t i = 0; i < kStrata; ++i) {
    strata_[i] = i;
  }
}

double ChurnInputs::Uniform(double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53);
}

AttributeSet ChurnInputs::Subscription() {
  const int64_t kind = rng_.NextInt(0, 99);
  if (kind < 80) {
    const double lo = Uniform(0.0, 1e6);
    const double hi = lo + Uniform(10.0, 200.0);
    return AttributeSet({Attribute::Float64(kKeyConfidence, AttrOp::kGe, lo),
                         Attribute::Float64(kKeyConfidence, AttrOp::kLe, hi)});
  }
  if (kind < 90) {
    return AttributeSet({Attribute::Float64(kKeyConfidence, AttrOp::kGe, Uniform(9.9e5, 1e6))});
  }
  if (kind < 98) {
    return AttributeSet({Attribute::Float64(kKeyConfidence, AttrOp::kEq, Uniform(0.0, 1e6))});
  }
  return AttributeSet({Attribute::Float64(kKeyConfidence, AttrOp::kNe, Uniform(0.0, 1e6))});
}

AttributeSet ChurnInputs::Reading() {
  if (next_stratum_ == kStrata) {
    for (size_t i = kStrata - 1; i > 0; --i) {
      std::swap(strata_[i], strata_[static_cast<size_t>(rng_.NextInt(0, static_cast<int64_t>(i)))]);
    }
    next_stratum_ = 0;
  }
  constexpr double kWidth = 1e6 / static_cast<double>(kStrata);
  const double lo = static_cast<double>(strata_[next_stratum_++]) * kWidth;
  const double value = Uniform(lo, lo + kWidth);
  return AttributeSet({Attribute::Float64(kKeyConfidence, AttrOp::kIs, value)});
}

size_t ChurnInputs::Slot(size_t slots) {
  return static_cast<size_t>(rng_.NextInt(0, static_cast<int64_t>(slots) - 1));
}

std::vector<AttributeSet> MakeCorpus(uint64_t seed, size_t subscriptions) {
  ChurnInputs inputs(seed);
  std::vector<AttributeSet> corpus;
  corpus.reserve(subscriptions);
  for (size_t i = 0; i < subscriptions; ++i) {
    corpus.push_back(inputs.Subscription());
  }
  return corpus;
}

ChurnIndex::ChurnIndex(std::vector<AttributeSet> corpus) : index_(kKeyConfidence) {
  slots_.reserve(corpus.size());
  for (AttributeSet& attrs : corpus) {
    slots_.push_back(Slot{next_id_++, std::move(attrs)});
  }
  for (const Slot& slot : slots_) {
    index_.Insert(slot.id, 0, &slot.attrs);
  }
}

void ChurnIndex::Walk(const AttributeSet& reading,
                      std::vector<const diffusion::MatchIndexEntry*>* candidates) const {
  candidates->clear();
  index_.ForEachCandidate(reading, [candidates](const diffusion::MatchIndexEntry& entry) {
    candidates->push_back(&entry);
  });
}

void ChurnIndex::Confirm(const AttributeSet& reading,
                         const std::vector<const diffusion::MatchIndexEntry*>& candidates,
                         std::vector<uint32_t>* matched) {
  matched->clear();
  for (const diffusion::MatchIndexEntry* entry : candidates) {
    if (diffusion::OneWayMatch(*entry->attrs, reading)) {
      matched->push_back(entry->id);
    }
  }
}

bool ChurnIndex::EraseSlot(size_t slot) { return index_.Erase(slots_[slot].id); }

bool ChurnIndex::InsertSlot(size_t slot, AttributeSet attrs) {
  Slot& target = slots_[slot];
  target.id = next_id_++;
  target.attrs = std::move(attrs);
  return index_.Insert(target.id, 0, &target.attrs);
}

std::vector<uint32_t> ChurnIndex::FullScan(const AttributeSet& reading) const {
  std::vector<uint32_t> expected;
  for (const Slot& slot : slots_) {
    if (diffusion::OneWayMatch(slot.attrs, reading)) {
      expected.push_back(slot.id);
    }
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

MatchVerdict CheckMatches(std::vector<uint32_t> matched, const std::vector<uint32_t>& expected) {
  std::sort(matched.begin(), matched.end());
  std::vector<uint32_t> common;
  std::set_intersection(matched.begin(), matched.end(), expected.begin(), expected.end(),
                        std::back_inserter(common));
  return MatchVerdict{common.size(), matched == expected};
}

}  // namespace perfbench
