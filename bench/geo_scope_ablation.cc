// Geo-scoped interest flooding ablation (the §4.2/§7 extension).
//
// "In our current implementation interests and exploratory messages are
// flooded through the network ... We are currently exploring using filters
// to optimize diffusion (avoiding flooding) with geographic information."
//
// A grid network with the sink in one corner and the queried region at the
// far end of the same edge; the GeoScopeFilter suppresses interest
// re-flooding at nodes outside the sink-to-region corridor. Expected shape:
// with scoping on, interests stop reaching off-corridor nodes, total bytes
// per event drop, and delivery is unaffected (the corridor retains the
// routes that matter).

#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

int Main(int argc, char** argv) {
  int runs = 3;
  int grid = 6;
  int minutes = 10;
  int base_seed = 4000;
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point"},
                     {"grid", &grid, "grid side, in nodes"},
                     {"minutes", &minutes, "simulated minutes per replicate"},
                     {"seed", &base_seed, "seed of the first replicate"}});

  std::printf("=== Geo-scoped interest flooding (%dx%d grid, sink corner -> far-edge region,\n",
              grid, grid);
  std::printf("    %d runs x %d min) ===\n\n", runs, minutes);
  std::printf("%-14s  %-18s  %-16s  %-16s\n", "geo scoping", "bytes/event", "delivery %",
              "interests pruned");

  for (bool geo : {false, true}) {
    RunningStat bytes;
    RunningStat delivery;
    RunningStat pruned;
    for (int run = 0; run < runs; ++run) {
      GeoParams params;
      params.grid = static_cast<size_t>(grid);
      params.geo_scope = geo;
      params.duration = static_cast<SimDuration>(minutes) * kMinute;
      params.seed = base_seed + static_cast<uint64_t>(run);
      const GeoResult result = RunGeoExperiment(params);
      bytes.Add(result.bytes_per_event);
      delivery.Add(result.delivery_rate * 100.0);
      pruned.Add(static_cast<double>(result.interests_pruned));
    }
    std::printf("%-14s  %-18s  %-16s  %-16.0f\n", geo ? "on" : "off",
                FormatWithCI(bytes, 0).c_str(), FormatWithCI(delivery, 1).c_str(), pruned.mean());
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
