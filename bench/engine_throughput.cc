// Whole-engine events/sec benchmark on the paper's Figure-7 testbed running
// the Figure-8 aggregation experiment: 14 nodes, 4 sources,
// duplicate-suppression filters everywhere, the congested CSMA MAC.
//
// Determinism contract:
//  * The deterministic section (events executed, delivered events, diffusion
//    bytes, and the trace fingerprint of one traced 2-minute run) is a pure
//    function of (seed, runs, minutes) and byte-identical for any --jobs;
//    scripts/check.sh cmp-gates --deterministic-only output across --jobs
//    values, and --check re-runs it at the file's recorded runs and minutes
//    against the committed file.
//  * The timing section (events_per_sec median, min and max over the --runs
//    replicates) varies run to run like every wall-clock metric (cf.
//    BENCH_matching.json); timing runs are always serial regardless of
//    --jobs.
//
// Emits BENCH_engine.json ("diffusion-bench-v1" schema).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/testbed/experiments.h"

namespace diffusion {
namespace {

Fig8Params BaseParams(uint64_t seed, SimDuration duration) {
  Fig8Params params;
  params.sources = 4;
  params.duration = duration;
  params.warmup = 60 * kSecond;
  params.seed = seed;
  return params;
}

// The rows every run emits and --check compares: the run shape, summed work
// counts over `runs` replicates, and one traced 2-minute run's fingerprint.
std::vector<bench::BenchResult> DeterministicSection(uint64_t base_seed, int runs, int minutes,
                                                     unsigned jobs) {
  FingerprintTraceSink trace;
  Fig8Params probe = BaseParams(base_seed, 2 * kMinute);
  probe.trace_sink = &trace;
  RunFig8(probe);

  const std::vector<Fig8Result> det_results = bench::RunReplicates<Fig8Result>(
      jobs, static_cast<size_t>(runs), /*trace_out=*/"", nullptr,
      [&](size_t i, TraceSink* sink) {
        Fig8Params params = BaseParams(base_seed + i, minutes * kMinute);
        params.trace_sink = sink;
        return RunFig8(params);
      });
  uint64_t total_events = 0;
  uint64_t total_delivered = 0;
  uint64_t total_bytes = 0;
  for (const Fig8Result& result : det_results) {
    total_events += result.events_executed;
    total_delivered += result.distinct_events;
    total_bytes += result.diffusion_bytes;
  }
  return {
      {"runs", "count", static_cast<double>(runs)},
      {"sim_minutes_per_run", "min", static_cast<double>(minutes)},
      {"events_executed", "count", static_cast<double>(total_events)},
      {"events_delivered", "count", static_cast<double>(total_delivered)},
      {"diffusion_bytes", "bytes", static_cast<double>(total_bytes)},
      {"trace_fingerprint", "hash53", static_cast<double>(trace.fingerprint())},
  };
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_engine.json";
  std::string check;
  int runs = 3;
  int minutes = 20;
  int base_seed = 3000;
  int jobs = 0;
  bool deterministic_only = false;
  bench::ParseFlags(argc, argv,
                    {{"out", &out, "where to write the JSON; empty writes nothing"},
                     {"check", &check, "re-run this file's deterministic rows; write nothing"},
                     {"runs", &runs, "replicates per section"},
                     {"minutes", &minutes, "simulated minutes per replicate"},
                     {"seed", &base_seed, "seed of the first replicate"},
                     {"jobs", &jobs, "deterministic-section workers; 0 = all cores"},
                     {"deterministic-only", &deterministic_only, "skip the timing section"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));
  if (!check.empty()) {
    const bench::RecordedFile recorded(check);
    const int recorded_runs = static_cast<int>(recorded.Value("runs"));
    const int recorded_minutes = static_cast<int>(recorded.Value("sim_minutes_per_run"));
    recorded.Verify(DeterministicSection(base_seed, recorded_runs, recorded_minutes, workers),
                    bench::RecordedRows::kEmitted);
    return 0;
  }

  if (runs < 1) {
    std::fprintf(stderr, "FAIL: --runs must be at least 1\n");
    return 1;
  }

  std::vector<bench::BenchResult> results =
      DeterministicSection(base_seed, runs, minutes, workers);
  std::printf("=== Engine throughput: Figure-7 testbed, %d x %d min, 4 sources ===\n\n", runs,
              minutes);
  for (const bench::BenchResult& row : results) {
    std::printf("%-28s  %16.0f\n", row.name.c_str(), row.value);
  }

  if (!deterministic_only) {
    // ---- timing section (always serial) ----------------------------------
    std::vector<double> rates;
    for (int i = 0; i < runs; ++i) {
      uint64_t events = 0;
      const double seconds = bench::Seconds([&] {
        events = RunFig8(BaseParams(base_seed + static_cast<uint64_t>(i), minutes * kMinute))
                     .events_executed;
      });
      rates.push_back(static_cast<double>(events) / seconds);
    }
    const bench::Spread spread = bench::SpreadOf(rates);
    std::printf("\n%-28s  %16.0f   (median of %d; min %.0f, max %.0f)\n", "events_per_sec",
                spread.median, runs, spread.min, spread.max);
    results.push_back({"events_per_sec", "events/s", spread.median});
    results.push_back({"events_per_sec_min", "events/s", spread.min});
    results.push_back({"events_per_sec_max", "events/s", spread.max});
  }

  bench::WriteBenchJson(out, "engine_throughput", results);
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
