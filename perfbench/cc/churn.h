// match1m_churn: one standalone MatchIndex over a million subscriptions on
// one numeric key, read by single-reading dispatches and written by
// erase-then-insert churn. The corpus mix is bench/matching_hotpath's: 80%
// narrow [lo, lo + 10..200] ranges, 10% GE tails near the top, 8% EQ and 2%
// NE, over values in [0, 1e6].

#ifndef PERFBENCH_CC_CHURN_H_
#define PERFBENCH_CC_CHURN_H_

#include <cstdint>
#include <vector>

#include "src/core/match_index.h"
#include "src/naming/attribute_set.h"
#include "src/util/rng.h"

namespace perfbench {

// The workload's input stream. The corpus and the operation stream each
// draw from their own generator, seeded from the benchmark seed.
class ChurnInputs {
 public:
  // Readings come in rounds of kStrata, one in each kStrata-th of [0, 1e6].
  static constexpr size_t kStrata = 100;

  explicit ChurnInputs(uint64_t seed);

  diffusion::AttributeSet Subscription();
  // One reading: a single actual on the key, uniform on [0, 1e6] as in
  // matching_hotpath, drawn stratified: each round of kStrata readings takes
  // one value in each stratum, in shuffled order. The distribution is the
  // same; what stratifying fixes is the share in the GE-tail alarm band
  // [9.9e5, 1e6), exactly one reading per round, where independent draws
  // let it wander from run to run (those readings walk up to 100k tail
  // entries, so that share moves every timing).
  diffusion::AttributeSet Reading();
  // A uniformly chosen corpus slot.
  size_t Slot(size_t slots);

 private:
  double Uniform(double lo, double hi);

  diffusion::Rng rng_;
  std::vector<size_t> strata_;  // this round's stratum order
  size_t next_stratum_;
};

std::vector<diffusion::AttributeSet> MakeCorpus(uint64_t seed, size_t subscriptions);

// The live corpus and its index. Slot i always holds one live subscription;
// churn replaces it under a fresh id.
class ChurnIndex {
 public:
  explicit ChurnIndex(std::vector<diffusion::AttributeSet> corpus);

  ChurnIndex(const ChurnIndex&) = delete;
  ChurnIndex& operator=(const ChurnIndex&) = delete;

  size_t size() const { return slots_.size(); }

  // Dispatch, first half: every candidate the index offers for `reading`.
  void Walk(const diffusion::AttributeSet& reading,
            std::vector<const diffusion::MatchIndexEntry*>* candidates) const;
  // Dispatch, second half: ids of the candidates OneWayMatch confirms.
  static void Confirm(const diffusion::AttributeSet& reading,
                      const std::vector<const diffusion::MatchIndexEntry*>& candidates,
                      std::vector<uint32_t>* matched);

  // Churn halves; false when the index refuses the operation.
  bool EraseSlot(size_t slot);
  bool InsertSlot(size_t slot, diffusion::AttributeSet attrs);

  // The oracle: ids of every live subscription OneWayMatch accepts, by a
  // full scan of the corpus, ascending.
  std::vector<uint32_t> FullScan(const diffusion::AttributeSet& reading) const;

 private:
  struct Slot {
    uint32_t id = 0;
    diffusion::AttributeSet attrs;
  };

  std::vector<Slot> slots_;  // never resized after construction: entries point into it
  diffusion::MatchIndex index_;
  uint32_t next_id_ = 1;
};

// How one dispatch's matched ids compare with the full scan's.
struct MatchVerdict {
  size_t delivered = 0;  // matched ids the scan also found
  bool exact = false;    // the same ids, in any order
};
MatchVerdict CheckMatches(std::vector<uint32_t> matched, const std::vector<uint32_t>& expected);

}  // namespace perfbench

#endif  // PERFBENCH_CC_CHURN_H_
