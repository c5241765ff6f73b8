// Aggregation-strategy ablation — the §6.1 latency discussion.
//
// "A potential disadvantage of data aggregation is increased latency ... The
// algorithm used in these experiments does not affect latency at all, since
// we forward unique events immediately upon reception and then suppress any
// additional duplicates ... Other aggregation algorithms, such as those that
// delay transmitting a sensor reading with the hope of aggregating readings
// from other sensors, can add some latency."
//
// Compares three in-network strategies on the Figure-8 workload (4 sources):
//   none         — every copy travels to the sink
//   suppression  — §6.1's filter: first copy forwarded immediately
//   counting     — §3.3's merge-and-annotate filter with a hold window
//
// Expected shape: suppression matches `none` latency while cutting traffic;
// counting cuts delivered duplicates further but pays its window in latency.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

struct Strategy {
  const char* label;
  AggregationStrategy strategy;
};

int Main(int argc, char** argv) {
  int runs = 3;
  int minutes = 15;
  int base_seed = 6000;
  int window_ms = 2000;
  int jobs = 0;
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per strategy"},
                     {"minutes", &minutes, "simulated minutes per replicate"},
                     {"seed", &base_seed, "seed of the first replicate"},
                     {"window-ms", &window_ms, "counting filter's hold window, ms"},
                     {"jobs", &jobs, "worker threads; 0 = all cores"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));

  const Strategy strategies[] = {
      {"none", AggregationStrategy::kNone},
      {"suppression", AggregationStrategy::kSuppression},
      {"counting", AggregationStrategy::kCounting},
  };
  const size_t strategy_count = sizeof(strategies) / sizeof(strategies[0]);

  // One replicate per (strategy, run), fanned out --jobs at a time; the
  // aggregation below walks results in this order, so the table is
  // independent of --jobs.
  const std::vector<Fig8Result> results = bench::RunReplicates<Fig8Result>(
      workers, strategy_count * static_cast<size_t>(runs), /*trace_out=*/"", nullptr,
      [&strategies, runs, minutes, window_ms, base_seed](size_t i, TraceSink* sink) {
        Fig8Params params;
        params.sources = 4;
        params.strategy = strategies[i / static_cast<size_t>(runs)].strategy;
        params.counting_window = static_cast<SimDuration>(window_ms) * kMillisecond;
        params.duration = static_cast<SimDuration>(minutes) * kMinute;
        params.seed = base_seed + i % static_cast<size_t>(runs);
        params.trace_sink = sink;
        return RunFig8(params);
      });

  std::printf("=== Aggregation strategies on the Figure-8 workload (4 sources,\n");
  std::printf("    %d runs x %d min, counting window %d ms, %u jobs) ===\n\n", runs, minutes,
              window_ms, workers);
  std::printf("%-13s  %-18s  %-16s  %-18s\n", "strategy", "bytes/event", "delivery %",
              "first-copy latency");

  for (size_t s = 0; s < strategy_count; ++s) {
    RunningStat bytes;
    RunningStat delivery;
    RunningStat latency;
    for (int run = 0; run < runs; ++run) {
      const Fig8Result& result = results[s * static_cast<size_t>(runs) + static_cast<size_t>(run)];
      bytes.Add(result.bytes_per_event);
      delivery.Add(result.delivery_rate * 100.0);
      latency.Add(result.mean_latency_s);
    }
    std::printf("%-13s  %-18s  %-16s  %15.2f s\n", strategies[s].label,
                FormatWithCI(bytes, 0).c_str(), FormatWithCI(delivery, 1).c_str(),
                latency.mean());
  }
  std::printf(
      "\nPaper checkpoint: immediate suppression 'does not affect latency at all';\n"
      "delay-based merging 'can add some latency' (≈ its hold window per hop).\n");
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
