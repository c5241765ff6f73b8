// Thread-scaling benchmark for the sharded parallel simulation core — the
// proof (and the regression gate) for src/sim/sharded_engine.
//
// The workload is a 10,000-node surveillance field: a side x side grid at
// the ns-simulation radio (1.6 Mb/s), partitioned into a 4x4 region grid,
// with one surveillance sink per region and four sources around it — load
// spread evenly over the regions so static region assignment balances. The
// same world runs at 1, 2, 4 and 8 worker threads.
//
// Determinism contract:
//  * Every run's output is byte-identical at every thread count. The
//    benchmark enforces this internally (trace fingerprints from a traced
//    run per thread count must agree, as must event and byte totals of the
//    timed runs), scripts/check.sh additionally cmp-gates
//    --deterministic-only output across --threads values, and --check
//    re-runs the deterministic rows against the committed file.
//  * The timing section (events_per_sec_t*, parallel_speedup_4t) varies run
//    to run like every wall-clock metric.
//
// Emits BENCH_parallel.json ("diffusion-bench-v1" schema). --require-speedup
// is enforced only where at least 4 hardware threads are available (the
// determinism gates always run); with --check it re-verifies the recorded
// parallel_speedup_4t the same way against the recorded threads_available.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/apps/surveillance.h"
#include "src/testbed/testbed_world.h"
#include "src/testbed/topology.h"
#include "src/trace/trace.h"

namespace diffusion {
namespace {

constexpr double kSpacing = 10.0;
constexpr double kRange = 12.0;
constexpr SimTime kFieldSourceStart = 1 * kSecond;
constexpr double kMiB = 1024.0 * 1024.0;

NodeId GridId(int side, int row, int col) {
  return static_cast<NodeId>(row * side + col) + 1;
}

// One run's deterministic output plus its wall time.
struct RunOutput {
  uint64_t events_executed = 0;
  uint64_t diffusion_bytes = 0;
  uint64_t border_frames = 0;
  uint64_t deliveries_clamped = 0;
  std::vector<uint64_t> clamped_by_region;
  uint64_t fingerprint = 0;
  uint64_t trace_events = 0;
  uint64_t barriers_run = 0;
  size_t distinct_events = 0;
  int regions = 0;
  SimDuration window = 0;
  MemoryLedger memory;  // at the end of the run
  double wall_seconds = 0.0;
};

RunOutput RunWorld(int side, int regions, unsigned threads, uint64_t seed, int sim_seconds,
                   bool traced) {
  const TestbedLayout layout = GridLayout(static_cast<size_t>(side), static_cast<size_t>(side),
                                          kSpacing, kRange);
  FingerprintTraceSink trace;
  TestbedWorld world(seed, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.radio = SimulationRadioConfig()}, traced ? &trace : nullptr,
                     {.regions = regions, .threads = threads});

  // One sink per region cell center, four sources three hops out — every
  // region carries comparable load, and the neighborhoods straddle region
  // borders (the cell centers sit near the spatial cut lines). The first
  // center sits side/8 from the edge, so the grid needs side >= 24.
  const int cells = 4;  // app placement grid; independent of --regions
  const int step = side / cells;
  const int offset = step / 2;
  std::vector<std::unique_ptr<SurveillanceSink>> sinks;
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  SurveillanceConfig config;
  int32_t next_source_id = 1;
  for (int i = 0; i < cells; ++i) {
    for (int j = 0; j < cells; ++j) {
      const int row = offset + i * step;
      const int col = offset + j * step;
      sinks.push_back(
          std::make_unique<SurveillanceSink>(world.node(GridId(side, row, col)), config));
      sinks.back()->Start();
      const int spread = 3;
      const NodeId source_ids[] = {
          GridId(side, row - spread, col), GridId(side, row + spread, col),
          GridId(side, row, col - spread), GridId(side, row, col + spread)};
      for (NodeId id : source_ids) {
        sources.push_back(
            std::make_unique<SurveillanceSource>(world.node(id), config, next_source_id++));
        SurveillanceSource* source = sources.back().get();
        world.sim_of(id).At(kFieldSourceStart, [source] { source->Start(); });
      }
    }
  }

  RunOutput output;
  output.wall_seconds =
      bench::Seconds([&] { output.events_executed = world.RunUntil(sim_seconds * kSecond); });
  output.diffusion_bytes = world.TotalDiffusionBytes();
  output.clamped_by_region.assign(static_cast<size_t>(world.regions()), 0);
  if (world.regions() > 1) {  // one region has no borders
    output.border_frames = world.bridge().frames_handed_off();
    output.deliveries_clamped = world.bridge().deliveries_clamped();
    for (int r = 0; r < world.regions(); ++r) {
      output.clamped_by_region[static_cast<size_t>(r)] = world.bridge().deliveries_clamped_in(r);
    }
  }
  output.fingerprint = trace.fingerprint();
  output.trace_events = trace.count();
  output.barriers_run = world.engine().barriers_run();
  for (const auto& sink : sinks) {
    output.distinct_events += sink->distinct_events();
  }
  output.regions = world.regions();
  output.window = world.regions() > 1 ? world.engine().window() : 0;  // one region: no windows
  output.memory = world.Memory();
  return output;
}

// The leading rows of every output: the world's shape and one traced run's
// work counts and fingerprint. `sim_seconds` is the length the output
// reports (the timed runs' length in a full run).
std::vector<bench::BenchResult> ShapeAndCounts(int side, int sim_seconds, const RunOutput& run) {
  return {
      {"nodes", "count", static_cast<double>(side * side)},
      {"regions", "count", static_cast<double>(run.regions)},
      {"window_us", "us", static_cast<double>(run.window / kMicrosecond)},
      {"sim_seconds", "s", static_cast<double>(sim_seconds)},
      {"events_executed", "count", static_cast<double>(run.events_executed)},
      {"diffusion_bytes", "bytes", static_cast<double>(run.diffusion_bytes)},
      {"border_frames", "count", static_cast<double>(run.border_frames)},
      {"deliveries_clamped", "count", static_cast<double>(run.deliveries_clamped)},
      {"trace_fingerprint", "hash53", static_cast<double>(run.fingerprint)},
  };
}

// Per-region clamp counters (bridge.deliveries_clamped.r<N> in the metrics
// registry). Deterministic: clamping depends only on window geometry, so these
// belong in the cmp-gated deterministic section alongside the total.
void AppendPerRegionClamps(const RunOutput& run, std::vector<bench::BenchResult>* results) {
  for (size_t r = 0; r < run.clamped_by_region.size(); ++r) {
    results->push_back({"deliveries_clamped_r" + std::to_string(r), "count",
                        static_cast<double>(run.clamped_by_region[r])});
  }
}

// The world's byte ledger at the end of the run, one row per structure.
// Deterministic like the work counts: capacities follow the work.
void AppendMemoryRows(const RunOutput& run, std::vector<bench::BenchResult>* results) {
  for (const auto& [name, bytes] : MemoryRows(run.memory)) {
    results->push_back({"memory_" + name + "_bytes", "bytes", static_cast<double>(bytes)});
  }
}

// The --require-speedup gate: false (with a FAIL line) when `speedup` falls
// short of `require`; waived for a speedup measured on fewer than 4 hardware
// threads.
bool MeetsSpeedup(double require, double speedup, double threads_available) {
  if (threads_available < 4.0) {
    std::printf("SKIP: %.0f hardware threads; --require-speedup needs at least 4\n",
                threads_available);
    return true;
  }
  if (speedup < require) {
    std::fprintf(stderr, "FAIL: parallel_speedup_4t %.2fx below --require-speedup=%.1f\n",
                 speedup, require);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  const uint64_t start_rss = bench::ProcessStatusBytes("VmRSS");
  std::string out = "BENCH_parallel.json";
  std::string check;
  int side = 100;
  int regions = 16;
  int seconds = 30;
  int fp_seconds = 10;
  int seed = 9000;
  int threads = 1;
  bool deterministic_only = false;
  double require = 0.0;
  bench::ParseFlags(argc, argv,
                    {{"out", &out, "where to write the JSON; empty writes nothing"},
                     {"check", &check, "re-run this file's deterministic rows; write nothing"},
                     {"side", &side, "grid side (100 = 10,000 nodes); sources need 24", 24},
                     {"regions", &regions, "target region count", 1},
                     {"seconds", &seconds, "simulated seconds per timed run", 1},
                     {"fp-seconds", &fp_seconds, "simulated seconds per traced run", 1},
                     {"seed", &seed, "simulation seed"},
                     {"threads", &threads, "threads for --deterministic-only and --check"},
                     {"deterministic-only", &deterministic_only, "one traced run; no timing"},
                     {"require-speedup", &require, "minimum parallel_speedup_4t; 0 = no gate"}});
  if (!check.empty()) {
    const bench::RecordedFile recorded(check);
    const RunOutput run = RunWorld(side, regions, static_cast<unsigned>(threads), seed,
                                   fp_seconds, /*traced=*/true);
    std::vector<bench::BenchResult> fresh = ShapeAndCounts(side, seconds, run);
    fresh.push_back({"barriers_run", "count", static_cast<double>(run.barriers_run)});
    AppendPerRegionClamps(run, &fresh);
    AppendMemoryRows(run, &fresh);
    recorded.Verify(fresh, bench::RecordedRows::kEmitted);
    if (require > 0.0 && !MeetsSpeedup(require, recorded.Value("parallel_speedup_4t"),
                                       recorded.Value("threads_available"))) {
      return 1;
    }
    return 0;
  }

  const unsigned threads_available = std::thread::hardware_concurrency();

  if (deterministic_only) {
    // One traced run at the requested thread count; print and emit only
    // metrics that are a pure function of (seed, side, regions, window) so
    // outputs at different --threads values can be cmp'd byte for byte.
    const RunOutput run = RunWorld(side, regions, static_cast<unsigned>(threads), seed,
                                   fp_seconds, /*traced=*/true);
    std::printf("nodes=%d regions=%d window_us=%lld events=%llu bytes=%llu border=%llu "
                "clamped=%llu fp=%llu trace_events=%llu delivered=%zu barriers=%llu\n",
                side * side, run.regions, static_cast<long long>(run.window / kMicrosecond),
                static_cast<unsigned long long>(run.events_executed),
                static_cast<unsigned long long>(run.diffusion_bytes),
                static_cast<unsigned long long>(run.border_frames),
                static_cast<unsigned long long>(run.deliveries_clamped),
                static_cast<unsigned long long>(run.fingerprint),
                static_cast<unsigned long long>(run.trace_events), run.distinct_events,
                static_cast<unsigned long long>(run.barriers_run));
    std::vector<bench::BenchResult> results = ShapeAndCounts(side, fp_seconds, run);
    results.push_back({"trace_events", "count", static_cast<double>(run.trace_events)});
    results.push_back({"barriers_run", "count", static_cast<double>(run.barriers_run)});
    AppendPerRegionClamps(run, &results);
    AppendMemoryRows(run, &results);
    // How much of the peak the ledger explains: the process's high-water
    // mark less what it held before building anything.
    const double peak_growth = static_cast<double>(bench::ProcessStatusBytes("VmHWM")) -
                               static_cast<double>(start_rss);
    const double ledger = static_cast<double>(run.memory.total());
    std::printf("ledger=%.1f MiB peak_rss_growth=%.1f MiB explained=%.0f%%\n", ledger / kMiB,
                peak_growth / kMiB, peak_growth > 0.0 ? 100.0 * ledger / peak_growth : 0.0);
    bench::WriteBenchJson(out, "parallel_scaling", results);
    return 0;
  }

  const unsigned kThreadCounts[] = {1, 2, 4, 8};

  // ---- determinism: traced fingerprint per thread count ------------------
  std::printf("=== Parallel scaling: %dx%d grid, %d regions, %d sim-seconds ===\n\n", side, side,
              regions, seconds);
  RunOutput fp_runs[4];
  for (int i = 0; i < 4; ++i) {
    fp_runs[i] = RunWorld(side, regions, kThreadCounts[i], seed, fp_seconds, /*traced=*/true);
    std::printf("fingerprint @ %u threads       %16llu   (%llu trace events)\n", kThreadCounts[i],
                static_cast<unsigned long long>(fp_runs[i].fingerprint),
                static_cast<unsigned long long>(fp_runs[i].trace_events));
    if (fp_runs[i].fingerprint != fp_runs[0].fingerprint ||
        fp_runs[i].trace_events != fp_runs[0].trace_events ||
        fp_runs[i].barriers_run != fp_runs[0].barriers_run) {
      std::fprintf(stderr, "FAIL: trace diverges between 1 and %u threads\n", kThreadCounts[i]);
      return 1;
    }
  }

  // ---- timing: untraced events/sec per thread count ----------------------
  double events_per_sec[4] = {0.0, 0.0, 0.0, 0.0};
  uint64_t reference_events = 0;
  uint64_t reference_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    const RunOutput run =
        RunWorld(side, regions, kThreadCounts[i], seed, seconds, /*traced=*/false);
    // The timed runs must agree with each other too (events and bytes are
    // deterministic whether or not tracing is attached).
    if (i == 0) {
      reference_events = run.events_executed;
      reference_bytes = run.diffusion_bytes;
    } else if (run.events_executed != reference_events ||
               run.diffusion_bytes != reference_bytes) {
      std::fprintf(stderr, "FAIL: timed run diverges at %u threads\n", kThreadCounts[i]);
      return 1;
    }
    events_per_sec[i] =
        run.wall_seconds > 0.0 ? static_cast<double>(run.events_executed) / run.wall_seconds : 0.0;
    std::printf("events/sec @ %u threads        %16.0f\n", kThreadCounts[i], events_per_sec[i]);
  }
  const double speedup_4t = events_per_sec[0] > 0.0 ? events_per_sec[2] / events_per_sec[0] : 0.0;
  std::printf("\n%-28s  %16.2fx\n", "speedup @ 4 threads", speedup_4t);
  std::printf("%-28s  %16u\n", "hardware threads", threads_available);

  std::vector<bench::BenchResult> results = ShapeAndCounts(side, seconds, fp_runs[0]);
  results.insert(results.end(),
                 {{"barriers_run", "count", static_cast<double>(fp_runs[0].barriers_run)},
                  {"events_per_sec_t1", "events/s", events_per_sec[0]},
                  {"events_per_sec_t2", "events/s", events_per_sec[1]},
                  {"events_per_sec_t4", "events/s", events_per_sec[2]},
                  {"events_per_sec_t8", "events/s", events_per_sec[3]},
                  {"parallel_speedup_4t", "x", speedup_4t},
                  {"threads_available", "count", static_cast<double>(threads_available)}});
  AppendPerRegionClamps(fp_runs[0], &results);
  AppendMemoryRows(fp_runs[0], &results);
  bench::WriteBenchJson(out, "parallel_scaling", results);
  return require > 0.0 && !MeetsSpeedup(require, speedup_4t, threads_available) ? 1 : 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
