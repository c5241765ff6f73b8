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
// Emits BENCH_parallel.json ("diffusion-bench-v1" schema). Flags:
//   --out=PATH            where to write the JSON (default BENCH_parallel.json)
//   --check=PATH          validate a file written by a full run against the
//                         schema, then re-run its deterministic section (one
//                         traced --fp-seconds run with the same --side,
//                         --regions, --seconds and --seed) and fail on any row
//                         that differs; nothing is written
//   --side=N              grid side (default 100 -> 10,000 nodes)
//   --regions=N           target region count (default 16)
//   --seconds=N           simulated seconds per timed run (default 30)
//   --fp-seconds=N        simulated seconds per traced fingerprint run
//                         (default 10)
//   --threads=N           with --deterministic-only or --check: the thread
//                         count to run
//   --deterministic-only  one traced run; emit only deterministic metrics
//                         (the cross-thread cmp gate), no timing
//   --require-speedup=X   exit non-zero unless parallel_speedup_4t reaches X.
//                         Only enforced when at least 4 hardware threads are
//                         available (the determinism gates always run); with
//                         --check, re-verifies the recorded value the same
//                         way against the recorded threads_available.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "src/apps/surveillance.h"
#include "src/testbed/sharded_world.h"
#include "src/testbed/topology.h"
#include "src/trace/trace.h"

namespace diffusion {
namespace {

constexpr double kSpacing = 10.0;
constexpr double kRange = 12.0;
constexpr SimTime kSourceStart = 1 * kSecond;

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
  double wall_seconds = 0.0;
};

RunOutput RunWorld(int side, int regions, unsigned threads, uint64_t seed, int sim_seconds,
                   bool traced) {
  const TestbedLayout layout = GridLayout(static_cast<size_t>(side), static_cast<size_t>(side),
                                          kSpacing, kRange);
  ShardedWorldParams params;
  params.regions = regions;
  params.threads = threads;
  params.seed = seed;
  params.radio = SimulationRadioConfig();
  ShardedWorld world(layout, params);

  FingerprintTraceSink trace;
  if (traced) {
    world.set_merged_trace_sink(&trace);
  }

  // One sink per region cell center, four sources three hops out — every
  // region carries comparable load, and the neighborhoods straddle region
  // borders (the cell centers sit near the spatial cut lines).
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
        world.sim_of(id).At(kSourceStart, [source] { source->Start(); });
      }
    }
  }

  RunOutput output;
  const auto start = std::chrono::steady_clock::now();
  output.events_executed = world.RunUntil(sim_seconds * kSecond);
  const auto stop = std::chrono::steady_clock::now();
  output.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start).count();
  for (const auto& [id, node] : world.nodes()) {
    output.diffusion_bytes += node->stats().bytes_sent;
  }
  output.border_frames = world.bridge().frames_handed_off();
  output.deliveries_clamped = world.bridge().deliveries_clamped();
  for (int r = 0; r < world.region_map().regions(); ++r) {
    output.clamped_by_region.push_back(world.bridge().deliveries_clamped_in(r));
  }
  output.fingerprint = trace.fingerprint();
  output.trace_events = trace.count();
  output.barriers_run = world.engine().barriers_run();
  for (const auto& sink : sinks) {
    output.distinct_events += sink->distinct_events();
  }
  output.regions = world.region_map().regions();
  output.window = world.window();
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

int Main(int argc, char** argv) {
  const double require = std::strtod(
      bench::StringFlag(argc, argv, "require-speedup", "0").c_str(), nullptr);
  const std::string check = bench::StringFlag(argc, argv, "check");
  const int side = static_cast<int>(bench::IntFlag(argc, argv, "side", 100));
  const int regions = static_cast<int>(bench::IntFlag(argc, argv, "regions", 16));
  const int seconds = static_cast<int>(bench::IntFlag(argc, argv, "seconds", 30));
  const int fp_seconds = static_cast<int>(bench::IntFlag(argc, argv, "fp-seconds", 10));
  const uint64_t seed = static_cast<uint64_t>(bench::IntFlag(argc, argv, "seed", 9000));
  const unsigned threads = static_cast<unsigned>(bench::IntFlag(argc, argv, "threads", 1));
  if (!check.empty()) {
    std::string error;
    if (!bench::ValidateBenchJson(check, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    const RunOutput run = RunWorld(side, regions, threads, seed, fp_seconds, /*traced=*/true);
    std::vector<bench::BenchResult> fresh = ShapeAndCounts(side, seconds, run);
    fresh.push_back({"barriers_run", "count", static_cast<double>(run.barriers_run)});
    AppendPerRegionClamps(run, &fresh);
    if (!bench::MatchesRecorded(check, fresh, bench::RecordedRows::kEmitted, &error)) {
      std::fprintf(stderr, "FAIL: deterministic section differs from %s: %s\n", check.c_str(),
                   error.c_str());
      return 1;
    }
    if (require > 0.0) {
      double available = 0.0;
      if (!bench::ReadBenchValue(check, "threads_available", &available)) {
        std::fprintf(stderr, "FAIL: %s has no threads_available metric\n", check.c_str());
        return 1;
      }
      if (available < 4.0) {
        std::printf("SKIP: recorded on %d hardware threads; speedup not meaningful below 4\n",
                    static_cast<int>(available));
      } else {
        double recorded = 0.0;
        if (!bench::ReadBenchValue(check, "parallel_speedup_4t", &recorded)) {
          std::fprintf(stderr, "FAIL: %s has no parallel_speedup_4t metric\n", check.c_str());
          return 1;
        }
        if (recorded < require) {
          std::fprintf(stderr,
                       "FAIL: recorded parallel_speedup_4t %.2fx below --require-speedup=%.1f\n",
                       recorded, require);
          return 1;
        }
      }
    }
    std::printf("%s: valid %s file; deterministic section reproduced\n", check.c_str(),
                bench::kBenchJsonSchema);
    return 0;
  }

  const bool deterministic_only = bench::BoolFlag(argc, argv, "deterministic-only");
  const std::string out = bench::StringFlag(argc, argv, "out", "BENCH_parallel.json");
  const unsigned threads_available = std::thread::hardware_concurrency();

  if (deterministic_only) {
    // One traced run at the requested thread count; print and emit only
    // metrics that are a pure function of (seed, side, regions, window) so
    // outputs at different --threads values can be cmp'd byte for byte.
    const RunOutput run = RunWorld(side, regions, threads, seed, fp_seconds, /*traced=*/true);
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
    if (!out.empty()) {
      std::vector<bench::BenchResult> results = ShapeAndCounts(side, fp_seconds, run);
      results.push_back({"trace_events", "count", static_cast<double>(run.trace_events)});
      results.push_back({"barriers_run", "count", static_cast<double>(run.barriers_run)});
      AppendPerRegionClamps(run, &results);
      if (!bench::WriteBenchJson(out, "parallel_scaling", results)) {
        return 1;
      }
      std::printf("wrote %s\n", out.c_str());
    }
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

  if (!out.empty()) {
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
    if (!bench::WriteBenchJson(out, "parallel_scaling", results)) {
      return 1;
    }
    std::string error;
    if (!bench::ValidateBenchJson(out, &error)) {
      std::fprintf(stderr, "FAIL: emitted file does not validate: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
  }

  if (require > 0.0) {
    if (threads_available < 4) {
      std::printf("SKIP: %u hardware threads; --require-speedup needs at least 4\n",
                  threads_available);
    } else if (speedup_4t < require) {
      std::fprintf(stderr, "FAIL: parallel_speedup_4t %.2fx below --require-speedup=%.1f\n",
                   speedup_4t, require);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
