// Figure 9 — "Percentage of audio events successfully delivered to the
// user" for nested versus flat (one-level) queries.
//
// Reproduces §6.2: ISI testbed topology, user at node 39, audio sensor at
// node 20, light sensors at 16/25/22/13. Lights toggle every minute on the
// minute and report state every 2 s (~100-byte messages); the audio sensor
// produces a ~100-byte clip per light-change event. In nested mode the audio
// node sub-tasks the lights (3 data hops end-to-end); in flat mode light
// reports cross the network to the user and the audio clips follow (5 data
// hops). Each point: mean of --runs x --minutes-long windows with 95% CI —
// the paper used three 20-minute experiments.
//
// Replicates run --jobs at a time (bench/replicate.h); the table, the --out
// file and the merged --trace-out are byte-identical for every --jobs value.
//
// Expected shape (paper): the nested query delivers more than the flat query
// everywhere; both fall off as sensors are added, the flat query faster; the
// flat query also moves substantially more bytes.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

// One replicate of the sweep: a (lights, run, nested-or-flat) cell.
struct Cell {
  int lights;
  int run;
  bool nested;
};

int Main(int argc, char** argv) {
  int runs = 3;
  int minutes = 20;
  int base_seed = 2000;
  bool triggered = false;
  int jobs = 0;
  std::string trace_out;
  std::string out;
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point"},
                     {"minutes", &minutes, "simulated minutes per replicate"},
                     {"seed", &base_seed, "seed of the first replicate"},
                     {"triggered", &triggered, "flat mode runs per-event triggered queries"},
                     {"jobs", &jobs, "worker threads; 0 = all cores"},
                     {"trace-out", &trace_out, "JSONL trace of the first nested run"},
                     {"out", &out, "write the table as diffusion-bench-v1 JSON"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));

  const QueryMode flat_mode = triggered ? QueryMode::kFlatTriggered : QueryMode::kFlat;
  const int light_counts[] = {1, 2, 4};

  std::vector<Cell> cells;
  for (int lights : light_counts) {
    for (int run = 0; run < runs; ++run) {
      cells.push_back({lights, run, true});
      cells.push_back({lights, run, false});
    }
  }

  const std::vector<Fig9Result> results = bench::RunReplicates<Fig9Result>(
      workers, cells.size(), trace_out,
      [](size_t i) { return i == 0; },  // cells[0] is the first nested run
      [&cells, minutes, base_seed, flat_mode](size_t i, TraceSink* sink) {
        const Cell& cell = cells[i];
        Fig9Params params;
        params.lights = cell.lights;
        params.duration = static_cast<SimDuration>(minutes) * kMinute;
        params.seed = base_seed + static_cast<uint64_t>(cell.run);
        params.mode = cell.nested ? QueryMode::kNested : flat_mode;
        params.trace_sink = sink;
        return RunFig9(params);
      });

  if (!trace_out.empty()) {
    std::printf("wrote JSONL trace of the first nested run to %s\n", trace_out.c_str());
  }

  std::printf("=== Figure 9: %% of light-change events delivering audio to the user ===\n");
  std::printf("(%d runs x %d min per point, %u jobs; mean ± 95%% CI; flat mode: %s)\n\n", runs,
              minutes, workers,
              triggered ? "per-event triggered queries" : "one-level data correlation");
  std::printf("%-8s  %-20s  %-20s  %-16s  %-16s\n", "sensors", "nested %", "flat %",
              "nested bytes", "flat bytes");

  std::vector<bench::BenchResult> bench_results;
  size_t index = 0;
  for (int lights : light_counts) {
    RunningStat nested_pct;
    RunningStat flat_pct;
    RunningStat nested_bytes;
    RunningStat flat_bytes;
    for (int run = 0; run < runs; ++run) {
      const Fig9Result& nested = results[index++];
      nested_pct.Add(nested.delivered_fraction * 100.0);
      nested_bytes.Add(static_cast<double>(nested.diffusion_bytes));
      const Fig9Result& flat = results[index++];
      flat_pct.Add(flat.delivered_fraction * 100.0);
      flat_bytes.Add(static_cast<double>(flat.diffusion_bytes));
    }
    std::printf("%-8d  %-20s  %-20s  %-16.0f  %-16.0f\n", lights,
                FormatWithCI(nested_pct, 1).c_str(), FormatWithCI(flat_pct, 1).c_str(),
                nested_bytes.mean(), flat_bytes.mean());
    const std::string point = std::to_string(lights) + "_sensors";
    bench_results.push_back({"nested_delivered_" + point, "%", nested_pct.mean()});
    bench_results.push_back(
        {"nested_delivered_" + point + "_ci95", "%", nested_pct.confidence95()});
    bench_results.push_back({"flat_delivered_" + point, "%", flat_pct.mean()});
    bench_results.push_back({"flat_delivered_" + point + "_ci95", "%", flat_pct.confidence95()});
    bench_results.push_back({"nested_bytes_" + point, "B", nested_bytes.mean()});
    bench_results.push_back({"flat_bytes_" + point, "B", flat_bytes.mean()});
  }
  std::printf(
      "\nLocalizing data near the triggering event (nested) both delivers more events and\n"
      "moves fewer bytes — 'localizing the data to the sensors is very important to\n"
      "parsimonious use of bandwidth' (§6.2).\n");
  bench::WriteBenchJson(out, "fig9_nested_queries", bench_results);
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
