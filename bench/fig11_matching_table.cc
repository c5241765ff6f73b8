// Figure 11 — "Matching performance as the number of attributes grow."
//
// Reproduces §6.3's methodology: two-way matching of the Figure-10 interest
// (Set A, 8 attributes) against a data set (Set B) grown from 6 to 30
// attributes, four series: match/IS (extra actuals), match/EQ (extra
// formals), no-match/IS and no-match/EQ (Set B's confidence flipped from 90
// to 10 so Set A's "confidence GT 50" fails). Each measurement times a loop
// of 5,000 matches (10,000 for the cheaper non-matching case), repeated
// --reps times with re-randomized attribute order, reported as mean ± 95% CI
// per match.
//
// Expected shape (paper, on a 66 MHz 486): cost linear in the attribute
// count; the no-match lines are cheap and flat; match/EQ grows fastest
// (every added formal must be searched); match/IS grows more slowly. The
// absolute numbers here reflect the host CPU, not the PC/104 node; the paper
// measured ~500 µs per small-set match at 66 MHz.

#include <cstdio>

#include "bench/harness.h"
#include "src/apps/animal.h"
#include "src/naming/matching.h"
#include "src/testbed/harness.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

void Shuffle(AttributeVector* attrs, Rng* rng) {
  for (size_t i = attrs->size(); i > 1; --i) {
    std::swap((*attrs)[i - 1],
              (*attrs)[static_cast<size_t>(rng->NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

// Nanoseconds per TwoWayMatch(a, b), measured over `iterations` calls.
double TimeMatch(const AttributeVector& a, const AttributeVector& b, int iterations) {
  // Warm caches.
  volatile bool sink = false;
  for (int i = 0; i < 100; ++i) {
    sink = sink ^ TwoWayMatch(a, b);
  }
  const double seconds = bench::Seconds([&] {
    for (int i = 0; i < iterations; ++i) {
      sink = sink ^ TwoWayMatch(a, b);
    }
  });
  return seconds * 1e9 / iterations;
}

int Main(int argc, char** argv) {
  int reps = 25;
  int seed = 42;
  bench::ParseFlags(argc, argv,
                    {{"reps", &reps, "repetitions per point, each in a new random order", 1},
                     {"seed", &seed, "attribute-order shuffle seed"}});

  std::printf("=== Figure 11: two-way matching cost vs attributes in Set B ===\n");
  std::printf("(ns per match, mean ± 95%% CI over %d repetitions with randomized order;\n", reps);
  std::printf(" match loops 5000x, no-match loops 10000x, per the paper's method)\n\n");
  std::printf("%-6s  %-18s  %-18s  %-18s  %-18s\n", "attrs", "match/IS", "match/EQ",
              "no-match/IS", "no-match/EQ");

  Rng rng(seed);
  const AttributeVector set_a = AnimalInterestSetA();
  for (size_t attrs = 6; attrs <= 30; attrs += 2) {
    RunningStat match_is;
    RunningStat match_eq;
    RunningStat nomatch_is;
    RunningStat nomatch_eq;
    for (int rep = 0; rep < reps; ++rep) {
      AttributeVector a = set_a;
      AttributeVector b_is = GrowSetB(attrs, SetGrowth::kActualIs);
      AttributeVector b_eq = GrowSetB(attrs, SetGrowth::kFormalEq);
      AttributeVector b_is_bad = MakeNoMatch(b_is);
      AttributeVector b_eq_bad = MakeNoMatch(b_eq);
      Shuffle(&a, &rng);
      Shuffle(&b_is, &rng);
      Shuffle(&b_eq, &rng);
      Shuffle(&b_is_bad, &rng);
      Shuffle(&b_eq_bad, &rng);
      match_is.Add(TimeMatch(a, b_is, 5000));
      match_eq.Add(TimeMatch(a, b_eq, 5000));
      nomatch_is.Add(TimeMatch(a, b_is_bad, 10000));
      nomatch_eq.Add(TimeMatch(a, b_eq_bad, 10000));
    }
    std::printf("%-6zu  %-18s  %-18s  %-18s  %-18s\n", attrs, FormatWithCI(match_is, 1).c_str(),
                FormatWithCI(match_eq, 1).c_str(), FormatWithCI(nomatch_is, 1).c_str(),
                FormatWithCI(nomatch_eq, 1).c_str());
  }
  std::printf(
      "\nShape to check against the paper: all lines linear; no-match lines cheap and\n"
      "nearly flat; match/EQ steeper than match/IS (added formals must be searched,\n"
      "added actuals only scanned).\n");
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
