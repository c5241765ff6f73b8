// Figure 8 — "Bytes sent from all diffusion modules, normalized to the
// number of distinct events, for varying numbers of sources."
//
// Reproduces §6.1's aggregation experiment: 14-node ISI testbed topology,
// sink at node 28, sources at nodes 25/16/22/13, one 112-byte event per 6 s
// with synchronized sequence numbers, duplicate-suppression filters on every
// node in the "with suppression" rows. Each point is the mean of --runs
// repetitions of --minutes-long measurement windows, with 95% CIs — the
// paper used five 30-minute experiments.
//
// Replicates are independent (seed, params) simulations and run --jobs at a
// time (see bench/replicate.h); every output — the table, --out and the
// merged --trace-out — is byte-identical regardless of --jobs.
//
// Expected shape (paper): with suppression the traffic is roughly constant
// in the source count; without it traffic climbs steeply; suppression saves
// up to ~42% at four sources. The analytic model brackets the points at
// 990 B/event (ideal aggregation) to 3289 B/event (4 sources, none).

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"
#include "src/testbed/traffic_model.h"

namespace diffusion {
namespace {

// One replicate of the sweep: a (sources, run, suppression) cell.
struct Cell {
  int sources;
  int run;
  bool suppression;
};

int Main(int argc, char** argv) {
  int runs = 5;
  int minutes = 30;
  int base_seed = 1000;
  int jobs = 0;
  std::string trace_out;
  std::string out;
  // Flight recorder: trace the first (1-source, with-suppression) run only —
  // one full trace is plenty and tracing every sweep point would dwarf the
  // results in I/O.
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point"},
                     {"minutes", &minutes, "simulated minutes per replicate"},
                     {"seed", &base_seed, "seed of the first replicate"},
                     {"jobs", &jobs, "worker threads; 0 = all cores"},
                     {"trace-out", &trace_out, "JSONL trace of the first run"},
                     {"out", &out, "write the table as diffusion-bench-v1 JSON"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));

  // Flatten the sweep into the serial loop's execution order; aggregation
  // below consumes results in this (seed) order, never completion order.
  std::vector<Cell> cells;
  for (int sources = 1; sources <= 4; ++sources) {
    for (int run = 0; run < runs; ++run) {
      cells.push_back({sources, run, true});
      cells.push_back({sources, run, false});
    }
  }

  const std::vector<Fig8Result> results = bench::RunReplicates<Fig8Result>(
      workers, cells.size(), trace_out,
      [&cells](size_t i) {
        return cells[i].sources == 1 && cells[i].run == 0 && cells[i].suppression;
      },
      [&cells, minutes, base_seed](size_t i, TraceSink* sink) {
        const Cell& cell = cells[i];
        Fig8Params params;
        params.sources = cell.sources;
        params.duration = static_cast<SimDuration>(minutes) * kMinute;
        params.seed = base_seed + static_cast<uint64_t>(cell.run);
        params.strategy =
            cell.suppression ? AggregationStrategy::kSuppression : AggregationStrategy::kNone;
        params.trace_sink = sink;
        return RunFig8(params);
      });

  RunningStat bytes_with[5];
  RunningStat bytes_without[5];
  RunningStat delivery_with[5];
  RunningStat delivery_without[5];
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (cell.suppression) {
      bytes_with[cell.sources].Add(results[i].bytes_per_event);
      delivery_with[cell.sources].Add(results[i].delivery_rate * 100.0);
    } else {
      bytes_without[cell.sources].Add(results[i].bytes_per_event);
      delivery_without[cell.sources].Add(results[i].delivery_rate * 100.0);
    }
  }

  if (!trace_out.empty()) {
    std::printf("traced the 1-source with-suppression run to %s\n\n", trace_out.c_str());
  }
  std::printf("=== Figure 8: in-network aggregation on the 14-node testbed ===\n");
  std::printf("(%d runs x %d min per point, %u jobs; bytes sent by all diffusion modules per\n",
              runs, minutes, workers);
  std::printf(" distinct event received at the sink; mean ± 95%% CI)\n\n");
  std::printf("%-8s  %-20s  %-20s  %-8s  %-12s  %-12s\n", "sources", "with suppression",
              "without suppression", "savings", "model(ideal)", "model(none)");
  const TrafficModelParams model;
  std::vector<bench::BenchResult> bench_results;
  for (int sources = 1; sources <= 4; ++sources) {
    const double savings =
        bytes_without[sources].mean() > 0.0
            ? 1.0 - bytes_with[sources].mean() / bytes_without[sources].mean()
            : 0.0;
    std::printf("%-8d  %-20s  %-20s  %6.1f%%  %12.0f  %12.0f\n", sources,
                FormatWithCI(bytes_with[sources], 0).c_str(),
                FormatWithCI(bytes_without[sources], 0).c_str(), savings * 100.0,
                ModelBytesPerEvent(model, sources, AggregationModel::kIdeal),
                ModelBytesPerEvent(model, sources, AggregationModel::kNone));
    const std::string point = std::to_string(sources) + "_sources";
    bench_results.push_back(
        {"bytes_per_event_with_suppression_" + point, "B/event", bytes_with[sources].mean()});
    bench_results.push_back({"bytes_per_event_with_suppression_" + point + "_ci95", "B/event",
                             bytes_with[sources].confidence95()});
    bench_results.push_back(
        {"bytes_per_event_without_suppression_" + point, "B/event", bytes_without[sources].mean()});
    bench_results.push_back({"bytes_per_event_without_suppression_" + point + "_ci95", "B/event",
                             bytes_without[sources].confidence95()});
    bench_results.push_back({"savings_" + point, "%", savings * 100.0});
    bench_results.push_back(
        {"delivery_with_suppression_" + point, "%", delivery_with[sources].mean()});
    bench_results.push_back(
        {"delivery_without_suppression_" + point, "%", delivery_without[sources].mean()});
  }

  std::printf("\nEvent delivery %% (the paper reports 55-80%% under its congested MAC):\n");
  std::printf("%-8s  %-20s  %-20s\n", "sources", "with suppression", "without");
  for (int sources = 1; sources <= 4; ++sources) {
    std::printf("%-8d  %-20s  %-20s\n", sources, FormatWithCI(delivery_with[sources], 1).c_str(),
                FormatWithCI(delivery_without[sources], 1).c_str());
  }
  bench::WriteBenchJson(out, "fig8_aggregation", bench_results);
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
