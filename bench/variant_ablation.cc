// Diffusion variant ablation — §7's open question about mapping diffusion's
// parameters/phases to different needs.
//
// Runs the Figure-8 workload under the paper's two-phase pull (exploratory
// floods + reinforcement) and under one-phase pull (data follows the reverse
// of the fastest interest flood; no exploratory phase at all), with
// suppression both on and off.
//
// Expected shape: one-phase pull removes the periodic exploratory floods and
// the reinforcement chatter, cutting bytes/event — most visibly without
// suppression (where each source's exploratory flood costs a full network
// sweep). Its trade-off is path agility: repairs ride the 60 s interest
// refresh instead of the exploratory cadence.

#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

int Main(int argc, char** argv) {
  int runs = 3;
  int minutes = 15;
  int base_seed = 7000;
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point", 1},
                     {"minutes", &minutes, "simulated minutes per replicate", 1},
                     {"seed", &base_seed, "seed of the first replicate"}});

  std::printf("=== Two-phase vs one-phase pull on the Figure-8 workload (4 sources,\n");
  std::printf("    %d runs x %d min) ===\n\n", runs, minutes);
  std::printf("%-16s  %-13s  %-18s  %-16s  %-12s\n", "variant", "suppression", "bytes/event",
              "delivery %", "latency");

  for (DiffusionVariant variant :
       {DiffusionVariant::kTwoPhasePull, DiffusionVariant::kOnePhasePull}) {
    for (bool suppression : {true, false}) {
      RunningStat bytes;
      RunningStat delivery;
      RunningStat latency;
      for (int run = 0; run < runs; ++run) {
        Fig8Params params;
        params.sources = 4;
        params.variant = variant;
        params.strategy =
            suppression ? AggregationStrategy::kSuppression : AggregationStrategy::kNone;
        params.duration = static_cast<SimDuration>(minutes) * kMinute;
        params.seed = base_seed + static_cast<uint64_t>(run);
        const Fig8Result result = RunFig8(params);
        bytes.Add(result.bytes_per_event);
        delivery.Add(result.delivery_rate * 100.0);
        latency.Add(result.mean_latency_s);
      }
      std::printf("%-16s  %-13s  %-18s  %-16s  %9.2f s\n",
                  variant == DiffusionVariant::kTwoPhasePull ? "two-phase pull"
                                                             : "one-phase pull",
                  suppression ? "on" : "off", FormatWithCI(bytes, 0).c_str(),
                  FormatWithCI(delivery, 1).c_str(), latency.mean());
    }
  }
  std::printf(
      "\nOne-phase pull drops the exploratory floods and reinforcement chatter that the\n"
      "two-phase protocol pays for path quality; at the testbed's 1:10 exploratory:data\n"
      "ratio that overhead is a large share of every byte sent.\n");
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
