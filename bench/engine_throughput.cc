// Whole-engine events/sec benchmark on the paper's Figure-7 testbed running
// the Figure-8 aggregation experiment: 14 nodes, 4 sources,
// duplicate-suppression filters everywhere, the congested CSMA MAC.
//
// Determinism contract:
//  * The deterministic section (events executed, delivered events, diffusion
//    bytes, and the trace fingerprint of one traced 2-minute run) is a pure
//    function of (seed, runs, minutes) and byte-identical for any --jobs;
//    scripts/check.sh cmp-gates --deterministic-only output across --jobs
//    values, and --check re-runs it against the committed file.
//  * The timing section (events_per_sec median, min and max over the --runs
//    replicates) varies run to run like every wall-clock metric (cf.
//    BENCH_matching.json); timing runs are always serial regardless of
//    --jobs.
//
// Emits BENCH_engine.json ("diffusion-bench-v1" schema). Flags:
//   --out=PATH            where to write the JSON (default BENCH_engine.json)
//   --check=PATH          validate an existing file against the schema, then
//                         re-run the deterministic section at the file's
//                         recorded runs and sim_minutes_per_run and fail on
//                         any row that differs; nothing is written
//   --runs=N              replicates per section (default 3)
//   --minutes=M           simulated minutes per replicate (default 20)
//   --seed=S              seed of the first replicate (default 3000)
//   --jobs=N              worker threads for the deterministic section
//   --deterministic-only  emit only the deterministic metrics (the --jobs
//                         cmp gate) and skip the timing section

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
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
  const uint64_t base_seed = static_cast<uint64_t>(bench::IntFlag(argc, argv, "seed", 3000));
  const unsigned jobs = bench::JobsFlag(argc, argv);
  const std::string check = bench::StringFlag(argc, argv, "check");
  if (!check.empty()) {
    std::string error;
    if (!bench::ValidateBenchJson(check, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    double runs = 0.0;
    double minutes = 0.0;
    if (!bench::ReadBenchValue(check, "runs", &runs) ||
        !bench::ReadBenchValue(check, "sim_minutes_per_run", &minutes)) {
      std::fprintf(stderr, "FAIL: %s records no runs or sim_minutes_per_run\n", check.c_str());
      return 1;
    }
    const std::vector<bench::BenchResult> fresh = DeterministicSection(
        base_seed, static_cast<int>(runs), static_cast<int>(minutes), jobs);
    if (!bench::MatchesRecorded(check, fresh, bench::RecordedRows::kEmitted, &error)) {
      std::fprintf(stderr, "FAIL: deterministic section differs from %s: %s\n", check.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("%s: valid %s file; deterministic section reproduced\n", check.c_str(),
                bench::kBenchJsonSchema);
    return 0;
  }

  const int runs = static_cast<int>(bench::IntFlag(argc, argv, "runs", 3));
  const int minutes = static_cast<int>(bench::IntFlag(argc, argv, "minutes", 20));
  const bool deterministic_only = bench::BoolFlag(argc, argv, "deterministic-only");
  const std::string out = bench::StringFlag(argc, argv, "out", "BENCH_engine.json");
  if (runs < 1) {
    std::fprintf(stderr, "FAIL: --runs must be at least 1\n");
    return 1;
  }

  std::vector<bench::BenchResult> results = DeterministicSection(base_seed, runs, minutes, jobs);
  std::printf("=== Engine throughput: Figure-7 testbed, %d x %d min, 4 sources ===\n\n", runs,
              minutes);
  for (const bench::BenchResult& row : results) {
    std::printf("%-28s  %16.0f\n", row.name.c_str(), row.value);
  }

  if (!deterministic_only) {
    // ---- timing section (always serial) ----------------------------------
    std::vector<double> rates;
    for (int i = 0; i < runs; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const Fig8Result result =
          RunFig8(BaseParams(base_seed + static_cast<uint64_t>(i), minutes * kMinute));
      const std::chrono::duration<double> seconds = std::chrono::steady_clock::now() - start;
      rates.push_back(static_cast<double>(result.events_executed) / seconds.count());
    }
    std::sort(rates.begin(), rates.end());
    const size_t mid = rates.size() / 2;
    const double median = rates.size() % 2 == 1 ? rates[mid] : (rates[mid - 1] + rates[mid]) / 2;
    std::printf("\n%-28s  %16.0f   (median of %d; min %.0f, max %.0f)\n", "events_per_sec",
                median, runs, rates.front(), rates.back());
    results.push_back({"events_per_sec", "events/s", median});
    results.push_back({"events_per_sec_min", "events/s", rates.front()});
    results.push_back({"events_per_sec_max", "events/s", rates.back()});
  }

  if (!out.empty()) {
    if (!bench::WriteBenchJson(out, "engine_throughput", results)) {
      return 1;
    }
    std::string error;
    if (!bench::ValidateBenchJson(out, &error)) {
      std::fprintf(stderr, "FAIL: emitted file does not validate: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
