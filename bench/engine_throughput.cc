// Whole-engine events/sec benchmark — the proof for the memory-layout
// overhaul (pairing-heap scheduler, pooled messages, zero-copy wire path,
// CoW attribute sets, SoA gradient tables).
//
// The workload is the paper's Figure-7 testbed running the Figure-8
// aggregation experiment: 14 nodes, 4 sources, duplicate-suppression
// filters everywhere, the congested CSMA MAC. Both engines live in one
// binary (Fig8Params::compat_engine flips the scheduler implementation and
// the wire path), so one run measures the overhaul against the pre-overhaul
// baseline on identical inputs.
//
// Determinism contract:
//  * Both engines are asserted byte-equivalent first: a short traced run in
//    each mode must produce the identical event trace and metrics. Only
//    then is anything timed. The compat channel probes Reaches for every
//    endpoint on every frame, so this also checks the overhauled channel's
//    cached per-sender receiver lists against that full walk.
//  * The deterministic section (events_executed, delivered events, bytes,
//    the trace fingerprint) is byte-identical for any --jobs; scripts/
//    check.sh cmp-gates --deterministic-only output across --jobs values.
//  * The timing section (events_per_sec*, engine_speedup) varies run to run
//    like every wall-clock metric (cf. BENCH_matching.json); timing runs
//    are always serial regardless of --jobs.
//
// Emits BENCH_engine.json ("diffusion-bench-v1" schema). Flags:
//   --out=PATH            where to write the JSON (default BENCH_engine.json)
//   --check=PATH          validate an existing file against the schema; no run
//   --runs=N              replicates per section (default 3)
//   --minutes=M           simulated minutes per timing replicate (default 10)
//   --jobs=N              worker threads for the deterministic section
//   --deterministic-only  emit only the deterministic metrics (the --jobs
//                         cmp gate) and skip the timing section
//   --require-speedup=X   exit non-zero unless engine_speedup reaches X;
//                         with --check, re-verifies the recorded value
//   --steps               instead of the two-mode run, measure the overhaul
//                         one subsystem at a time: start from the full
//                         compat engine and cumulatively enable the pairing
//                         heap, the pooled zero-copy wire path, then the
//                         channel memory layout (the docs/PERFORMANCE.md
//                         step table). No JSON is written.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "bench/replicate.h"
#include "src/testbed/experiments.h"

namespace diffusion {
namespace {

// Folds a buffered trace into one number (the shared streaming fold from
// src/trace/trace.h, same value FingerprintTraceSink would produce).
uint64_t TraceFingerprint(const std::vector<TraceEvent>& events) {
  uint64_t hash = kTraceFingerprintSeed;
  for (const TraceEvent& event : events) {
    hash = FoldTraceEvent(hash, event);
  }
  return TruncateTraceFingerprint(hash);
}

Fig8Params BaseParams(uint64_t seed, SimDuration duration, bool compat) {
  Fig8Params params;
  params.sources = 4;
  params.suppression = true;
  params.duration = duration;
  params.warmup = 60 * kSecond;
  params.seed = seed;
  params.compat_engine = compat;
  return params;
}

// One cumulative configuration of the step table: which subsystems still run
// in compat (pre-overhaul) form.
struct Step {
  const char* label;
  bool compat_scheduler;
  bool compat_wire;
  bool compat_channel;
};

bool SameResult(const Fig8Result& a, const Fig8Result& b) {
  return a.distinct_events == b.distinct_events && a.diffusion_bytes == b.diffusion_bytes &&
         a.suppressed == b.suppressed && a.events_executed == b.events_executed &&
         a.bytes_per_event == b.bytes_per_event && a.delivery_rate == b.delivery_rate &&
         a.mean_latency_s == b.mean_latency_s && a.energy_per_event == b.energy_per_event;
}

// Reads one recorded metric back out of a bench JSON file this binary wrote
// (fixed two-space formatting, so a scan is sufficient).
bool ReadBenchValue(const std::string& path, const std::string& name, double* value) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  std::string text;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  const std::string needle = "\"name\": \"" + name + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  const std::string value_key = "\"value\": ";
  const size_t value_at = text.find(value_key, at);
  if (value_at == std::string::npos) {
    return false;
  }
  *value = std::strtod(text.c_str() + value_at + value_key.size(), nullptr);
  return true;
}

int Main(int argc, char** argv) {
  const double require = std::strtod(
      bench::StringFlag(argc, argv, "require-speedup", "0").c_str(), nullptr);
  const std::string check = bench::StringFlag(argc, argv, "check");
  if (!check.empty()) {
    std::string error;
    if (!bench::ValidateBenchJson(check, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    if (require > 0.0) {
      double recorded = 0.0;
      if (!ReadBenchValue(check, "engine_speedup", &recorded)) {
        std::fprintf(stderr, "FAIL: %s has no engine_speedup metric\n", check.c_str());
        return 1;
      }
      if (recorded < require) {
        std::fprintf(stderr, "FAIL: recorded engine_speedup %.2fx below --require-speedup=%.1f\n",
                     recorded, require);
        return 1;
      }
    }
    std::printf("%s: valid %s file\n", check.c_str(), bench::kBenchJsonSchema);
    return 0;
  }

  const int runs = static_cast<int>(bench::IntFlag(argc, argv, "runs", 3));
  const int minutes = static_cast<int>(bench::IntFlag(argc, argv, "minutes", 20));
  const uint64_t base_seed = static_cast<uint64_t>(bench::IntFlag(argc, argv, "seed", 3000));
  const unsigned jobs = bench::JobsFlag(argc, argv);
  const bool deterministic_only = bench::BoolFlag(argc, argv, "deterministic-only");
  const bool steps = bench::BoolFlag(argc, argv, "steps");
  const std::string out = bench::StringFlag(argc, argv, "out", "BENCH_engine.json");

  const SimDuration step_duration = minutes * kMinute;
  auto time_config = [&](const Step& step) {
    double seconds = 0.0;
    uint64_t events = 0;
    for (int i = 0; i < runs; ++i) {
      Fig8Params params =
          BaseParams(base_seed + static_cast<uint64_t>(i), step_duration, /*compat=*/false);
      params.compat_scheduler = step.compat_scheduler;
      params.compat_wire = step.compat_wire;
      params.compat_channel = step.compat_channel;
      const auto start = std::chrono::steady_clock::now();
      const Fig8Result result = RunFig8(params);
      const auto stop = std::chrono::steady_clock::now();
      seconds += std::chrono::duration_cast<std::chrono::duration<double>>(stop - start).count();
      events += result.events_executed;
    }
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  };

  if (steps) {
    // Cumulative: each row keeps every overhaul subsystem enabled so far.
    // CoW attribute sets, arena pooling, and the SoA gradient tables are not
    // gated and are active in every row (including the baseline).
    const Step kSteps[] = {
        {"compat engine (baseline)", true, true, true},
        {"+ pairing-heap scheduler", false, true, true},
        {"+ pooled zero-copy wire path", false, false, true},
        {"+ channel memory layout", false, false, false},
    };
    std::printf("=== Overhaul steps: Figure-7 testbed, %d x %d min, 4 sources ===\n\n", runs,
                minutes);
    double baseline_eps = 0.0;
    double previous_eps = 0.0;
    for (const Step& step : kSteps) {
      const double eps = time_config(step);
      if (baseline_eps == 0.0) {
        std::printf("%-30s  %14.0f   events/sec\n", step.label, eps);
        baseline_eps = eps;
      } else {
        std::printf("%-30s  %14.0f   events/sec  (%+5.1f%%, cumulative %.2fx)\n", step.label,
                    eps, previous_eps > 0.0 ? 100.0 * (eps - previous_eps) / previous_eps : 0.0,
                    baseline_eps > 0.0 ? eps / baseline_eps : 0.0);
      }
      previous_eps = eps;
    }
    return 0;
  }

  // ---- engine equivalence (traced, short) --------------------------------
  // One short replicate per mode, fully traced; the engines must agree on
  // every trace event and every metric before anything is timed.
  MemoryTraceSink overhauled_trace;
  MemoryTraceSink compat_trace;
  Fig8Params probe = BaseParams(base_seed, 2 * kMinute, /*compat=*/false);
  probe.trace_sink = &overhauled_trace;
  const Fig8Result probe_overhauled = RunFig8(probe);
  probe.compat_engine = true;
  probe.trace_sink = &compat_trace;
  const Fig8Result probe_compat = RunFig8(probe);
  if (overhauled_trace.events().size() != compat_trace.events().size()) {
    std::fprintf(stderr, "FAIL: engines disagree on trace length (%zu vs %zu)\n",
                 overhauled_trace.events().size(), compat_trace.events().size());
    return 1;
  }
  for (size_t i = 0; i < overhauled_trace.events().size(); ++i) {
    if (!(overhauled_trace.events()[i] == compat_trace.events()[i])) {
      std::fprintf(stderr, "FAIL: engines disagree at trace event %zu\n", i);
      return 1;
    }
  }
  if (!SameResult(probe_overhauled, probe_compat)) {
    std::fprintf(stderr, "FAIL: engines disagree on Fig8 metrics\n");
    return 1;
  }
  const uint64_t fingerprint = TraceFingerprint(overhauled_trace.events());

  // ---- deterministic section (parallel over --jobs) ----------------------
  const SimDuration duration = minutes * kMinute;
  const std::vector<Fig8Result> det_results = bench::RunReplicates<Fig8Result>(
      jobs, static_cast<size_t>(runs), /*trace_out=*/"", nullptr,
      [&](size_t i, TraceSink* sink) {
        Fig8Params params = BaseParams(base_seed + i, duration, /*compat=*/false);
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

  std::printf("=== Engine throughput: Figure-7 testbed, %d x %d min, 4 sources ===\n\n", runs,
              minutes);
  std::printf("%-28s  %16llu\n", "events executed",
              static_cast<unsigned long long>(total_events));
  std::printf("%-28s  %16llu\n", "events delivered",
              static_cast<unsigned long long>(total_delivered));
  std::printf("%-28s  %16llu\n", "diffusion bytes",
              static_cast<unsigned long long>(total_bytes));
  std::printf("%-28s  %16llu\n", "trace fingerprint",
              static_cast<unsigned long long>(fingerprint));

  std::vector<bench::BenchResult> results = {
      {"runs", "count", static_cast<double>(runs)},
      {"sim_minutes_per_run", "min", static_cast<double>(minutes)},
      {"events_executed", "count", static_cast<double>(total_events)},
      {"events_delivered", "count", static_cast<double>(total_delivered)},
      {"diffusion_bytes", "bytes", static_cast<double>(total_bytes)},
      {"trace_fingerprint", "hash53", static_cast<double>(fingerprint)},
  };

  double speedup = 0.0;
  if (!deterministic_only) {
    // ---- timing section (always serial) ----------------------------------
    // Same replicates, wall-clocked one at a time in each mode. The compat
    // engine runs the identical simulation (asserted above), so dividing the
    // same event count by each mode's wall time is a like-for-like rate.
    const double baseline_eps = time_config(Step{"", true, true, true});
    const double overhauled_eps = time_config(Step{"", false, false, false});
    speedup = baseline_eps > 0.0 ? overhauled_eps / baseline_eps : 0.0;

    std::printf("\n%-28s  %16.0f   events/sec\n", "compat engine (baseline)", baseline_eps);
    std::printf("%-28s  %16.0f   events/sec  (%.2fx)\n", "overhauled engine", overhauled_eps,
                speedup);

    results.push_back({"events_per_sec_baseline", "events/s", baseline_eps});
    results.push_back({"events_per_sec", "events/s", overhauled_eps});
    results.push_back({"engine_speedup", "x", speedup});
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

  if (!deterministic_only && require > 0.0 && speedup < require) {
    std::fprintf(stderr, "FAIL: engine_speedup %.2fx below --require-speedup=%.1f\n", speedup,
                 require);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
