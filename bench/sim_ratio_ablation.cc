// §6.1's simulation comparison: why the testbed saved 42% while the earlier
// simulations saved 3-5x.
//
// "The primary reason for this difference is differences in ratio of
// exploratory to data messages ... In simulation the ratio of exploratory to
// data messages sent from a source was about 1:100 (exploratory every 50 s,
// data every 0.5 s, 64 B packets) ... In our testbed this ratio was about
// 1:10."
//
// This ablation runs a larger random network (default 50 nodes, 5 sources, 5
// sinks, 1.6 Mb/s radios as in the ns simulations) at both ratios, with and
// without suppression, and reports the aggregation savings factor. Expected
// shape: the savings factor grows markedly from the 1:10 to the 1:100
// configuration, because flooded exploratory traffic (which aggregation
// merges entirely) stops dominating the reinforced-path data traffic.

#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

struct RatioConfig {
  const char* label;
  SimDuration event_interval;
  int exploratory_every;
};

int Main(int argc, char** argv) {
  int runs = 3;
  int nodes = 50;
  int minutes = 5;
  int base_seed = 3000;
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point", 1},
                     {"nodes", &nodes, "random-network size", 2},
                     {"minutes", &minutes, "simulated minutes per replicate", 1},
                     {"seed", &base_seed, "seed of the first replicate"}});

  const RatioConfig ratios[] = {
      // Testbed-like: events every 6 s, 1-in-10 exploratory.
      {"1:10 (testbed-like)", 6 * kSecond, 10},
      // Simulation-like: events every 0.5 s, 1-in-100 exploratory.
      {"1:100 (ns-sim-like)", 500 * kMillisecond, 100},
  };

  std::printf("=== Exploratory:data ratio ablation (%d nodes, 5 sources, 5 sinks,\n", nodes);
  std::printf("    1.6 Mb/s radios, %d runs x %d min) ===\n\n", runs, minutes);
  std::printf("%-22s  %-18s  %-18s  %-10s\n", "ratio", "suppressed B/evt", "plain B/evt",
              "savings");

  for (const RatioConfig& ratio : ratios) {
    RunningStat with_suppression;
    RunningStat without_suppression;
    for (int run = 0; run < runs; ++run) {
      ScaleParams params;
      params.nodes = static_cast<size_t>(nodes);
      params.event_interval = ratio.event_interval;
      params.exploratory_every = ratio.exploratory_every;
      params.duration = static_cast<SimDuration>(minutes) * kMinute;
      params.seed = base_seed + static_cast<uint64_t>(run);

      params.suppression = true;
      with_suppression.Add(RunScaleExperiment(params).bytes_per_event);
      params.suppression = false;
      without_suppression.Add(RunScaleExperiment(params).bytes_per_event);
    }
    const double factor = with_suppression.mean() > 0.0
                              ? without_suppression.mean() / with_suppression.mean()
                              : 0.0;
    std::printf("%-22s  %-18s  %-18s  %8.2fx\n", ratio.label,
                FormatWithCI(with_suppression, 0).c_str(),
                FormatWithCI(without_suppression, 0).c_str(), factor);
  }
  std::printf(
      "\nPaper checkpoints: ~1.7x savings at 1:10 (the testbed's 42%%), 3-5x at 1:100\n"
      "(the earlier simulations, Figure 6b of [23]).\n");
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
