// "Figure 6b from [23]" — the prior ns simulations §6.1 compares against.
//
// "Previous simulation studies have shown that aggregation can reduce energy
// consumption by a factor of 3-5x in a large network (50-250 nodes) with
// five active sources and five sinks." This bench reproduces that study's
// configuration (1.6 Mb/s radios, 64 B messages, data every 0.5 s,
// exploratory every 50 s ≈ 1:100) over the node-count sweep and reports the
// measured-energy savings factor of in-network duplicate suppression.
//
// Expected shape: the savings factor sits in the paper's 3-5x band across
// the sweep — far above the testbed's 1.7x, for the ratio reasons §6.1
// explains.

#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

int Main(int argc, char** argv) {
  int runs = 3;
  int minutes = 4;
  int base_seed = 9500;
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point", 1},
                     {"minutes", &minutes, "simulated minutes per replicate", 1},
                     {"seed", &base_seed, "seed of the first replicate"}});

  const size_t node_counts[] = {50, 100, 150, 200, 250};

  std::printf("=== Prior-simulation reproduction (5 sources, 5 sinks, 1.6 Mb/s, 64 B\n");
  std::printf("    messages, data/0.5 s, exploratory/50 s; %d runs x %d min) ===\n\n", runs,
              minutes);
  std::printf("%-8s  %-20s  %-20s  %-10s\n", "nodes", "comm-energy (supp)", "comm-energy (none)",
              "savings");
  std::printf(
      "(communication energy only — the ns study's radios made idle listening\n negligible next "
      "to tx/rx; see energy_model for the idle-dominated testbed view)\n\n");

  for (size_t nodes : node_counts) {
    RunningStat with_suppression;
    RunningStat without_suppression;
    for (int run = 0; run < runs; ++run) {
      ScaleParams params;
      params.nodes = nodes;
      params.field_size = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
      params.duration = static_cast<SimDuration>(minutes) * kMinute;
      params.seed = base_seed + static_cast<uint64_t>(run);

      params.suppression = true;
      with_suppression.Add(RunScaleExperiment(params).comm_energy_per_event);
      params.suppression = false;
      without_suppression.Add(RunScaleExperiment(params).comm_energy_per_event);
    }
    const double factor = with_suppression.mean() > 0.0
                              ? without_suppression.mean() / with_suppression.mean()
                              : 0.0;
    std::printf("%-8zu  %-20s  %-20s  %8.2fx\n", nodes,
                FormatWithCI(with_suppression, 2).c_str(),
                FormatWithCI(without_suppression, 2).c_str(), factor);
  }
  std::printf("\nPaper checkpoint: 3-5x energy savings across 50-250 nodes (Figure 6b of\n");
  std::printf("[23]) versus the testbed's 1.7x at its 1:10 exploratory:data ratio.\n");
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
