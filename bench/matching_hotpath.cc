// Matching/dispatch hot-path benchmark — the proof for this PR's fast path.
//
// Two workloads, each measured with the pre-PR reference implementation and
// with the canonical fast path, over the same inputs:
//
//  * dispatch — a busy node's filter chain: 64 registered filters (most
//    watching interests, some watching typed data) against a mixed message
//    stream grown with the Figure-11 rules. The reference scans every filter
//    with the nested-loop OneWayMatchLinear; the fast path asks MatchIndex
//    for candidates and confirms with the merge-scan OneWayMatch. Winners
//    are asserted identical before anything is timed.
//
//  * exact — GradientTable::FindExact: recognizing a refreshed interest among
//    64 remembered ones. The reference runs the quadratic multiset compare
//    (ExactMatchLinear); the fast path's precomputed order-insensitive hash
//    rejects non-equal sets in O(1).
//
//  * inequality at scale — the standalone pub/sub configuration: a
//    million-entry MatchIndex keyed on a numeric attribute, where nearly every
//    filter is an inequality (narrow [c, c+w] ranges, selective GE tails, a
//    sprinkling of EQ and NE). The pre-PR index classified every inequality
//    formal into the any-scan group, so its candidate set was O(filters) per
//    message; that baseline count is computed arithmetically (replaying the
//    old classifier) rather than timed — scanning a million filters per
//    message is the thing this PR deletes. The interval/endpoint index is
//    then measured for real: candidate-set size and per-message dispatch
//    time.
//
// Emits BENCH_matching.json ("diffusion-bench-v1" schema). --check rebuilds
// the inequality section at the file's ineq_filters and compares its count
// rows (timing rows are never checked); --require-reduction then gates the
// re-run reduction.

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "src/apps/animal.h"
#include "src/core/match_index.h"
#include "src/naming/keys.h"
#include "src/naming/matching.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

volatile uint64_t g_sink = 0;  // defeats dead-code elimination of timed loops

void Shuffle(AttributeVector* attrs, Rng* rng) {
  for (size_t i = attrs->size(); i > 1; --i) {
    std::swap((*attrs)[i - 1],
              (*attrs)[static_cast<size_t>(rng->NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

// A registered filter, in both representations.
struct Entry {
  uint32_t id = 0;
  int32_t priority = 0;
  AttributeVector linear_attrs;  // what the pre-PR chain stored
  AttributeSet attrs;            // what the indexed chain stores
};

// The chain of a node running the shipped filters: interest-side machinery
// (gradient scoping, caches, aggregation triggers — all matching on
// `class EQ interest`, most further constrained by task) plus a smaller set
// of typed data filters. Data is the high-rate traffic, so the index's job
// is to keep the interest-side majority out of the data fast path.
std::vector<Entry> MakeFilters() {
  std::vector<Entry> filters;
  uint32_t next_id = 1;
  for (int i = 0; i < 48; ++i) {
    Entry entry;
    entry.id = next_id++;
    entry.priority = 100 + i;
    entry.linear_attrs = {ClassEq(kClassInterest),
                          Attribute::String(kKeyTask, AttrOp::kEq, "task" + std::to_string(i % 12)),
                          Attribute::Float64(kKeyConfidence, AttrOp::kGt, 50.0)};
    entry.attrs = entry.linear_attrs;
    filters.push_back(std::move(entry));
  }
  for (int i = 0; i < 16; ++i) {
    Entry entry;
    entry.id = next_id++;
    entry.priority = 10 + i;
    entry.linear_attrs = {ClassEq(kClassData),
                          Attribute::String(kKeyType, AttrOp::kEq, "type" + std::to_string(i % 8))};
    entry.attrs = entry.linear_attrs;
    filters.push_back(std::move(entry));
  }
  return filters;
}

// A message, in both representations.
struct Msg {
  AttributeVector linear_attrs;
  AttributeSet attrs;
};

// Mixed traffic, data-heavy: Figure-11-grown data sets (6..30 attributes,
// shuffled like real decode order) with a typed actual, plus occasional
// interest refreshes. The 31:1 ratio is generous to the slow path — the
// paper's interests refresh every ~30 s while data flows at per-second
// rates, so real streams are far more data-skewed still.
std::vector<Msg> MakeMessages(Rng* rng) {
  std::vector<Msg> messages;
  for (int i = 0; i < 256; ++i) {
    AttributeVector attrs;
    if (i % 32 == 31) {
      attrs = AnimalInterestSetA();
      attrs.push_back(Attribute::String(kKeyTask, AttrOp::kIs, "task" + std::to_string(i % 12)));
    } else {
      attrs = GrowSetB(static_cast<size_t>(6 + 6 * (i % 5)), SetGrowth::kActualIs);
      attrs.push_back(Attribute::String(kKeyType, AttrOp::kIs, "type" + std::to_string(i % 11)));
    }
    Shuffle(&attrs, rng);
    Msg msg;
    msg.linear_attrs = attrs;
    msg.attrs = std::move(attrs);
    messages.push_back(std::move(msg));
  }
  return messages;
}

// Pre-PR DispatchToChain: test every filter, keep the highest priority
// (lowest id on ties).
uint32_t DispatchLinear(const std::vector<Entry>& filters, const Msg& msg) {
  uint32_t best_id = 0;
  int32_t best_priority = 0;
  bool found = false;
  for (const Entry& entry : filters) {
    if (found &&
        (entry.priority < best_priority ||
         (entry.priority == best_priority && entry.id >= best_id))) {
      continue;
    }
    if (OneWayMatchLinear(entry.linear_attrs, msg.linear_attrs)) {
      found = true;
      best_priority = entry.priority;
      best_id = entry.id;
    }
  }
  return best_id;
}

// This PR's DispatchToChain: candidates from the index, merge-scan confirm.
uint32_t DispatchIndexed(const MatchIndex& index, const Msg& msg) {
  uint32_t best_id = 0;
  int32_t best_priority = 0;
  bool found = false;
  index.ForEachCandidate(msg.attrs, [&](const MatchIndexEntry& entry) {
    if (found &&
        (entry.priority < best_priority ||
         (entry.priority == best_priority && entry.id >= best_id))) {
      return;
    }
    if (OneWayMatch(*entry.attrs, msg.attrs)) {
      found = true;
      best_priority = entry.priority;
      best_id = entry.id;
    }
  });
  return best_id;
}

// 64 remembered interests (distinct sources) and a probe stream with an 80%
// hit rate, probes shuffled so the linear compare cannot ride stored order.
struct ExactWorkload {
  std::vector<AttributeVector> linear_entries;
  std::vector<AttributeSet> entries;
  std::vector<Msg> probes;
};

ExactWorkload MakeExactWorkload(Rng* rng) {
  ExactWorkload workload;
  std::vector<AttributeVector> all;
  for (int i = 0; i < 80; ++i) {
    AttributeVector attrs = AnimalInterestSetA();
    attrs.push_back(Attribute::Int32(kKeySourceId, AttrOp::kIs, i));
    all.push_back(std::move(attrs));
  }
  for (int i = 0; i < 64; ++i) {
    workload.linear_entries.push_back(all[static_cast<size_t>(i)]);
    workload.entries.push_back(AttributeSet(all[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < 256; ++i) {
    AttributeVector attrs = all[static_cast<size_t>(i % 80)];
    Shuffle(&attrs, rng);
    Msg probe;
    probe.linear_attrs = attrs;
    probe.attrs = std::move(attrs);
    workload.probes.push_back(std::move(probe));
  }
  return workload;
}

size_t FindExactLinear(const std::vector<AttributeVector>& entries, const Msg& probe) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (ExactMatchLinear(entries[i], probe.linear_attrs)) {
      return i;
    }
  }
  return entries.size();
}

size_t FindExactHashed(const std::vector<AttributeSet>& entries, const Msg& probe) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (ExactMatch(entries[i], probe.attrs)) {
      return i;
    }
  }
  return entries.size();
}

// ---- Inequality-at-scale workload ----------------------------------------

// One subscription of the standalone pub/sub corpus, classified the way the
// pre-PR index would have classified it (EQ on the discriminator → value
// bucket; anything else → any-scan).
struct IneqEntry {
  uint32_t id = 0;
  AttributeSet attrs;
  bool old_index_bucketed = false;  // EQ on the discriminator
  uint64_t old_bucket_bits = 0;     // NormalizedBits of the EQ value
};

// Corpus mix: 80% narrow ranges (a geofence / band subscription), 10%
// selective GE tails (threshold alarms), 8% EQ, 2% NE. Values live in
// [0, 1e6]; range widths in [10, 200], so any single reading matches a few
// dozen range subscriptions out of the whole million.
std::vector<IneqEntry> MakeIneqFilters(size_t count, Rng* rng) {
  std::vector<IneqEntry> filters;
  filters.reserve(count);
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng->Next() >> 11) * 0x1.0p-53);
  };
  for (size_t i = 0; i < count; ++i) {
    IneqEntry entry;
    entry.id = static_cast<uint32_t>(i + 1);
    const int kind = static_cast<int>(rng->NextInt(0, 99));
    AttributeVector attrs;
    if (kind < 80) {
      const double lo = uniform(0.0, 1e6);
      const double hi = lo + uniform(10.0, 200.0);
      attrs.push_back(Attribute::Float64(kKeyConfidence, AttrOp::kGe, lo));
      attrs.push_back(Attribute::Float64(kKeyConfidence, AttrOp::kLe, hi));
    } else if (kind < 90) {
      attrs.push_back(Attribute::Float64(kKeyConfidence, AttrOp::kGe, uniform(9.9e5, 1e6)));
    } else if (kind < 98) {
      const double value = uniform(0.0, 1e6);
      attrs.push_back(Attribute::Float64(kKeyConfidence, AttrOp::kEq, value));
      entry.old_index_bucketed = true;
      entry.old_bucket_bits = MatchIndex::NormalizedBits(value);
    } else {
      attrs.push_back(Attribute::Float64(kKeyConfidence, AttrOp::kNe, uniform(0.0, 1e6)));
    }
    entry.attrs = std::move(attrs);
    filters.push_back(std::move(entry));
  }
  return filters;
}

// A burst of single-reading messages, one kKeyConfidence actual each.
std::vector<AttributeSet> MakeIneqMessages(size_t count, Rng* rng) {
  std::vector<AttributeSet> messages;
  messages.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double value =
        1e6 * (static_cast<double>(rng->Next() >> 11) * 0x1.0p-53);
    messages.push_back(AttributeSet(
        {Attribute::Float64(kKeyConfidence, AttrOp::kIs, value)}));
  }
  return messages;
}

// The inequality-at-scale section: the corpus in a MatchIndex, the message
// burst, and the candidate-set sizes per message. The counts are a pure
// function of the corpus size, so --check rebuilds them at the file's
// ineq_filters.
struct IneqSection {
  std::vector<IneqEntry> filters;
  std::vector<AttributeSet> messages;
  MatchIndex index{kKeyConfidence};
  double scan_avg = 0.0;
  double indexed_avg = 0.0;

  double reduction() const { return scan_avg / indexed_avg; }
  std::vector<bench::BenchResult> CountRows() const {
    return {
        {"ineq_filters", "count", static_cast<double>(filters.size())},
        {"ineq_candidates_scan", "candidates/msg", scan_avg},
        {"ineq_candidates_indexed", "candidates/msg", indexed_avg},
        {"ineq_candidate_reduction", "x", reduction()},
    };
  }
};

// Builds `section` over `count` filters and counts its candidates. False
// (with a FAIL line) when the index disagrees with a full scan.
bool BuildIneqSection(size_t count, IneqSection* section) {
  Rng ineq_rng(987654321);
  section->filters = MakeIneqFilters(count, &ineq_rng);
  section->messages = MakeIneqMessages(512, &ineq_rng);
  std::unordered_map<uint64_t, uint64_t> old_eq_buckets;
  uint64_t old_any_count = 0;
  for (const IneqEntry& entry : section->filters) {
    if (!section->index.Insert(entry.id, 0, &entry.attrs)) {
      std::fprintf(stderr, "FAIL: duplicate id in inequality corpus\n");
      return false;
    }
    if (entry.old_index_bucketed) {
      ++old_eq_buckets[entry.old_bucket_bits];
    } else {
      ++old_any_count;
    }
  }

  // Soundness spot-check against a full scan (a handful of messages — the
  // randomized equivalence suite in tests/ is the exhaustive version).
  for (size_t m = 0; m < section->messages.size(); m += 128) {
    std::vector<uint32_t> candidates;
    section->index.ForEachCandidate(section->messages[m], [&](const MatchIndexEntry& entry) {
      if (OneWayMatch(*entry.attrs, section->messages[m])) {
        candidates.push_back(entry.id);
      }
    });
    std::sort(candidates.begin(), candidates.end());
    size_t expected = 0;
    for (const IneqEntry& entry : section->filters) {
      if (OneWayMatch(entry.attrs, section->messages[m])) {
        ++expected;
        if (!std::binary_search(candidates.begin(), candidates.end(), entry.id)) {
          std::fprintf(stderr, "FAIL: index lost a matching entry (id=%u)\n", entry.id);
          return false;
        }
      }
    }
    if (expected != candidates.size()) {
      std::fprintf(stderr, "FAIL: confirmed candidate count %zu != full-scan %zu\n",
                   candidates.size(), expected);
      return false;
    }
  }

  // Candidate-set sizes. The any-scan baseline is arithmetic: the old index
  // put every non-EQ-classified filter in the any-scan group, so each
  // message visited all of them plus its EQ bucket.
  uint64_t scan_candidates = 0;
  uint64_t indexed_candidates = 0;
  for (const AttributeSet& message : section->messages) {
    scan_candidates += old_any_count;
    for (const Attribute& attr : message.items()) {
      if (attr.key() == kKeyConfidence && attr.op() == AttrOp::kIs) {
        const auto it = old_eq_buckets.find(
            MatchIndex::NormalizedBits(*attr.AsDouble()));
        if (it != old_eq_buckets.end()) {
          scan_candidates += it->second;
        }
      }
    }
    section->index.ForEachCandidate(message, [&](const MatchIndexEntry&) {
      ++indexed_candidates;
    });
  }
  section->scan_avg =
      static_cast<double>(scan_candidates) / static_cast<double>(section->messages.size());
  section->indexed_avg =
      static_cast<double>(indexed_candidates) / static_cast<double>(section->messages.size());
  return true;
}

// Nanoseconds per op of `fn` over the whole message stream, the fastest of
// `reps` calls (the min tolerates scheduler noise better than the mean).
template <typename Fn>
double NsPerOp(int reps, size_t ops, Fn&& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    samples.push_back(bench::Seconds(fn) * 1e9 / static_cast<double>(ops));
  }
  return bench::SpreadOf(std::move(samples)).min;
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_matching.json";
  std::string check;
  int reps = 40;
  int ineq_filters = 1000000;
  double require = 0.0;
  double require_reduction = 0.0;
  bench::ParseFlags(argc, argv,
                    {{"out", &out, "where to write the JSON; empty writes nothing"},
                     {"check", &check, "re-run this file's inequality counts; write nothing"},
                     {"reps", &reps, "timing repetitions"},
                     {"filters", &ineq_filters, "inequality-section index size"},
                     {"require-speedup", &require, "minimum of both EQ speedups; 0 = no gate"},
                     {"require-reduction", &require_reduction, "min candidate-set reduction"}});
  if (!check.empty()) {
    const bench::RecordedFile recorded(check);
    IneqSection section;
    if (!BuildIneqSection(static_cast<size_t>(recorded.Value("ineq_filters")), &section)) {
      return 1;
    }
    recorded.Verify(section.CountRows(), bench::RecordedRows::kEmitted);
    if (require_reduction > 0.0 && section.reduction() < require_reduction) {
      std::fprintf(stderr, "FAIL: candidate reduction %.1fx below --require-reduction=%.1f\n",
                   section.reduction(), require_reduction);
      return 1;
    }
    return 0;
  }

  Rng rng(1234);
  const std::vector<Entry> filters = MakeFilters();
  const std::vector<Msg> messages = MakeMessages(&rng);
  MatchIndex index(kKeyClass);
  for (const Entry& entry : filters) {
    index.Insert(entry.id, entry.priority, &entry.attrs);
  }

  // The fast path must pick exactly the filter the full-chain scan picks.
  for (const Msg& msg : messages) {
    const uint32_t linear = DispatchLinear(filters, msg);
    const uint32_t indexed = DispatchIndexed(index, msg);
    if (linear != indexed) {
      std::fprintf(stderr, "FAIL: dispatch winners differ (linear=%u indexed=%u)\n", linear,
                   indexed);
      return 1;
    }
  }

  const ExactWorkload exact = MakeExactWorkload(&rng);
  for (const Msg& probe : exact.probes) {
    const size_t linear = FindExactLinear(exact.linear_entries, probe);
    const size_t hashed = FindExactHashed(exact.entries, probe);
    if (linear != hashed) {
      std::fprintf(stderr, "FAIL: exact-match results differ (%zu vs %zu)\n", linear, hashed);
      return 1;
    }
  }

  const double dispatch_linear_ns = NsPerOp(reps, messages.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& msg : messages) {
      acc += DispatchLinear(filters, msg);
    }
    g_sink = acc;
  });
  const double dispatch_indexed_ns = NsPerOp(reps, messages.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& msg : messages) {
      acc += DispatchIndexed(index, msg);
    }
    g_sink = acc;
  });
  const double exact_linear_ns = NsPerOp(reps, exact.probes.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& probe : exact.probes) {
      acc += FindExactLinear(exact.linear_entries, probe);
    }
    g_sink = acc;
  });
  const double exact_hashed_ns = NsPerOp(reps, exact.probes.size(), [&] {
    uint64_t acc = 0;
    for (const Msg& probe : exact.probes) {
      acc += FindExactHashed(exact.entries, probe);
    }
    g_sink = acc;
  });

  const double dispatch_speedup = dispatch_linear_ns / dispatch_indexed_ns;
  const double exact_speedup = exact_linear_ns / exact_hashed_ns;

  // ---- Inequality at scale -----------------------------------------------
  IneqSection section;
  if (!BuildIneqSection(static_cast<size_t>(ineq_filters), &section)) {
    return 1;
  }

  // Dispatch timing over the index that exists; the O(filters) baseline is
  // deliberately not timed at this scale.
  const int ineq_reps = std::max(1, std::min(5, reps / 8));
  const double ineq_dispatch_ns = NsPerOp(ineq_reps, section.messages.size(), [&] {
    uint64_t acc = 0;
    for (const AttributeSet& message : section.messages) {
      section.index.ForEachCandidate(message, [&](const MatchIndexEntry& entry) {
        if (OneWayMatch(*entry.attrs, message)) {
          acc += entry.id;
        }
      });
    }
    g_sink = acc;
  });

  std::printf("=== Matching hot path (64 filters, 256 messages, best of %d reps) ===\n\n", reps);
  std::printf("%-28s  %12s\n", "variant", "ns/message");
  std::printf("%-28s  %12.0f\n", "dispatch: full-chain linear", dispatch_linear_ns);
  std::printf("%-28s  %12.0f   (%.1fx)\n", "dispatch: index + merge", dispatch_indexed_ns,
              dispatch_speedup);
  std::printf("%-28s  %12.0f\n", "exact: multiset compare", exact_linear_ns);
  std::printf("%-28s  %12.0f   (%.1fx)\n", "exact: hash pre-check", exact_hashed_ns,
              exact_speedup);
  std::printf("\n=== Inequality at scale (%d filters, %zu messages, best of %d reps) ===\n\n",
              ineq_filters, section.messages.size(), ineq_reps);
  std::printf("%-28s  %12.0f   candidates/message\n", "any-scan baseline", section.scan_avg);
  std::printf("%-28s  %12.0f   candidates/message  (%.1fx fewer)\n", "interval index",
              section.indexed_avg, section.reduction());
  std::printf("%-28s  %12.0f   ns/message\n", "dispatch: per message", ineq_dispatch_ns);

  std::vector<bench::BenchResult> results = {
      {"dispatch_linear_full_chain", "ns/op", dispatch_linear_ns},
      {"dispatch_indexed_merge_scan", "ns/op", dispatch_indexed_ns},
      {"dispatch_speedup", "x", dispatch_speedup},
      {"exact_linear_multiset", "ns/op", exact_linear_ns},
      {"exact_hash_precheck", "ns/op", exact_hashed_ns},
      {"exact_speedup", "x", exact_speedup},
  };
  const std::vector<bench::BenchResult> counts = section.CountRows();
  results.insert(results.end(), counts.begin(), counts.end());
  results.push_back({"ineq_dispatch_indexed", "ns/op", ineq_dispatch_ns});
  bench::WriteBenchJson(out, "matching_hotpath", results);

  if (require > 0.0 && (dispatch_speedup < require || exact_speedup < require)) {
    std::fprintf(stderr, "FAIL: speedup below --require-speedup=%.1f\n", require);
    return 1;
  }
  if (require_reduction > 0.0 && section.reduction() < require_reduction) {
    std::fprintf(stderr, "FAIL: candidate reduction %.1fx below --require-reduction=%.1f\n",
                 section.reduction(), require_reduction);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
