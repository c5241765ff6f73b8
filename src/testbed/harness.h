// Experiment reporting: mean ± 95% CI, matching the paper's methodology
// ("each point represents the mean of five 30-minute experiments with 95%
// confidence intervals"). The benches run their seeded replicates through
// bench::RunReplicates (bench/replicate.h) and format each point here.

#ifndef SRC_TESTBED_HARNESS_H_
#define SRC_TESTBED_HARNESS_H_

#include <string>

#include "src/util/stats.h"

namespace diffusion {

// "1234.5 ± 67.8" (the ± term is the 95% CI half-width).
std::string FormatWithCI(const RunningStat& stat, int precision = 1);

}  // namespace diffusion

#endif  // SRC_TESTBED_HARNESS_H_
