// Congestion-control benchmark: offered load, a flooding node, two sinks.
//
// The paper's testbed MAC has no congestion story ("55-80%" delivery under
// load, §6.1). This bench drives the surveillance workload into collapse
// three ways and measures how much the TrafficPolicy shaping layers
// (src/core/traffic_policy.h, ReferenceShapingPolicy) recover:
//
//   load_sweep  shrink the event interval point by point; each point runs
//               unshaped and shaped
//   flooder     one misbehaving source blasts matching data at ~24x the
//               agreed rate; compare well-behaved delivery against a
//               flooder-free baseline
//   fairness    sinks 28 ("D") and 39 ("U") subscribe concurrently under
//               load; report the min/max delivery spread
//
// Emits BENCH_congestion.json ("diffusion-bench-v1" schema). The output
// contains no wall-clock values: the same seed produces a byte-identical
// file on every run/machine at any --jobs.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/testbed/congestion.h"

namespace diffusion {
namespace {

// The sweep's offered-load points, most gentle first. 6 s is the paper's
// agreed rate; the top of the sweep is 32x that, well past the channel's
// carrying capacity on the testbed's ~5-hop paths.
const SimDuration kSweepIntervals[] = {6 * kSecond, 3 * kSecond, 1500 * kMillisecond,
                                       750 * kMillisecond, 375 * kMillisecond,
                                       187 * kMillisecond, 93 * kMillisecond,
                                       46 * kMillisecond};

struct RunSpec {
  std::string label;
  CongestionRunParams params;
};

int Main(int argc, char** argv) {
  std::string scenario_flag = "all";
  int seed = 1;
  int minutes = 6;
  int jobs = 0;
  std::string out = "BENCH_congestion.json";
  std::string check;
  std::string trace_out;
  double require_gain = 0.0;
  double require_protection = 1.0;  // degradation never exceeds 1: no gate
  double require_fairness = 0.0;
  bench::ParseFlags(argc, argv,
                    {{"scenario", &scenario_flag, "load_sweep | flooder | fairness | all"},
                     {"seed", &seed, "simulation seed"},
                     {"minutes", &minutes, "simulated minutes per run (60 s warmup + window)", 2},
                     {"jobs", &jobs, "worker threads; 0 = all cores"},
                     {"out", &out, "where to write the JSON"},
                     {"check", &check, "re-run the scenarios this file holds; write nothing"},
                     {"trace-out", &trace_out, "JSONL trace of the first run"},
                     {"require-shaping-gain", &require_gain, "min shaped/unshaped at sweep top"},
                     {"require-flood-protection", &require_protection, "max loss to the flooder"},
                     {"require-fairness", &require_fairness, "min shaped two-sink min/max ratio"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));

  bool run_sweep = scenario_flag == "all" || scenario_flag == "load_sweep";
  bool run_flooder = scenario_flag == "all" || scenario_flag == "flooder";
  bool run_fairness = scenario_flag == "all" || scenario_flag == "fairness";
  std::optional<bench::RecordedFile> recorded;
  if (!check.empty()) {
    recorded.emplace(check);
    // Each scenario ends with one summary row; re-run those the file holds.
    run_sweep = recorded->Has("sweep_top_shaping_gain");
    run_flooder = recorded->Has("flooder_degradation");
    run_fairness = recorded->Has("fairness_min_max_ratio");
    if (!run_sweep && !run_flooder && !run_fairness) {
      std::fprintf(stderr, "FAIL: %s holds no scenario's rows\n", check.c_str());
      return 1;
    }
  }
  CongestionScenario parsed;
  if (!run_sweep && !run_flooder && !run_fairness &&
      !CongestionScenarioFromName(scenario_flag, &parsed)) {
    std::fprintf(stderr, "unknown --scenario=%s (load_sweep|flooder|fairness|all)\n",
                 scenario_flag.c_str());
    return 1;
  }

  const TrafficPolicy shaped = ReferenceShapingPolicy();
  CongestionRunParams base;
  base.seed = seed;
  base.end_at = minutes * kMinute;

  // The full run list, in output order. Each entry is one independent
  // simulation; RunReplicates fans them out --jobs at a time and hands the
  // results back in this order, so the JSON is byte-identical at any --jobs.
  std::vector<RunSpec> specs;
  if (run_sweep) {
    for (SimDuration interval : kSweepIntervals) {
      for (bool shape : {false, true}) {
        CongestionRunParams params = base;
        // Redundant sensing: most of the testbed observes the event
        // sequence, so offered load is sources x rate while the useful
        // information rate is just 1/interval — the regime where shaping
        // plus duplicate suppression has room to win and unshaped flooding
        // collapses.
        params.sources = 5;
        params.event_interval = interval;
        if (shape) {
          params.policy = shaped;
        }
        const long long ms = interval / kMillisecond;
        specs.push_back({"sweep_" + std::to_string(ms) + "ms_" +
                             (shape ? "shaped" : "unshaped"),
                         params});
      }
    }
  }
  if (run_flooder) {
    CongestionRunParams baseline = base;
    baseline.sources = 3;  // match the flooder runs' well-behaved set
    specs.push_back({"flooder_baseline", baseline});
    for (bool shape : {false, true}) {
      CongestionRunParams params = baseline;
      params.flooder = true;
      if (shape) {
        params.policy = shaped;
      }
      specs.push_back({std::string("flooder_") + (shape ? "shaped" : "unshaped"), params});
    }
  }
  if (run_fairness) {
    for (bool shape : {false, true}) {
      CongestionRunParams params = base;
      params.second_sink = true;
      params.event_interval = 1500 * kMillisecond;  // 4x load: contention, not collapse
      if (shape) {
        params.policy = shaped;
      }
      specs.push_back({std::string("fairness_") + (shape ? "shaped" : "unshaped"), params});
    }
  }

  std::printf("=== Congestion suite (seed %llu, %lld min/run, %u jobs, %zu runs) ===\n\n",
              static_cast<unsigned long long>(seed), static_cast<long long>(minutes), workers,
              specs.size());

  const std::vector<CongestionRunResult> run_results =
      bench::RunReplicates<CongestionRunResult>(
          workers, specs.size(), trace_out, nullptr, [&specs](size_t i, TraceSink* sink) {
            CongestionRunParams params = specs[i].params;
            params.trace_sink = sink;
            return RunCongestionScenario(params);
          });

  std::vector<bench::BenchResult> results;
  std::printf("%-24s %9s %9s %9s %9s\n", "run", "delivery", "sink2", "drops", "throttled");
  for (size_t i = 0; i < specs.size(); ++i) {
    const CongestionRunResult& r = run_results[i];
    const std::string& label = specs[i].label;
    std::printf("%-24s %8.1f%% %8.1f%% %9llu %9llu\n", label.c_str(), r.delivery * 100.0,
                r.delivery_second * 100.0, static_cast<unsigned long long>(r.mac_drops_queue_full),
                static_cast<unsigned long long>(r.mac_drops_rate_limited));
    results.push_back({label + "_delivery", "%", r.delivery * 100.0});
    results.push_back({label + "_bytes_sent", "bytes", r.bytes_sent});
    results.push_back({label + "_drops_queue_full", "frames",
                       static_cast<double>(r.mac_drops_queue_full)});
    results.push_back({label + "_drops_rate_limited", "frames",
                       static_cast<double>(r.mac_drops_rate_limited)});
    if (specs[i].params.second_sink) {
      results.push_back({label + "_delivery_second", "%", r.delivery_second * 100.0});
    }
    if (specs[i].params.flooder) {
      results.push_back({label + "_flooder_events", "events",
                         static_cast<double>(r.flooder_events_generated)});
    }
    if (specs[i].params.policy.AnyLayerEnabled()) {
      results.push_back({label + "_transmits_jittered", "msgs",
                         static_cast<double>(r.transmits_jittered)});
    }
  }

  const auto find_run = [&](const std::string& label) -> const CongestionRunResult* {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].label == label) {
        return &run_results[i];
      }
    }
    return nullptr;
  };

  bool ok = true;
  if (run_sweep) {
    const long long top_ms = kSweepIntervals[std::size(kSweepIntervals) - 1] / kMillisecond;
    const CongestionRunResult* unshaped =
        find_run("sweep_" + std::to_string(top_ms) + "ms_unshaped");
    const CongestionRunResult* top = find_run("sweep_" + std::to_string(top_ms) + "ms_shaped");
    const double gain =
        unshaped->delivery > 0.0 ? top->delivery / unshaped->delivery
                                 : (top->delivery > 0.0 ? 1e9 : 0.0);
    results.push_back({"sweep_top_shaping_gain", "x", gain});
    std::printf("\nload sweep @%lld ms: unshaped %.1f%%, shaped %.1f%% (%.2fx)\n", top_ms,
                unshaped->delivery * 100.0, top->delivery * 100.0, gain);
    if (require_gain > 0.0 && gain < require_gain) {
      std::fprintf(stderr, "FAIL: shaping gain %.2fx < required %.2fx\n", gain, require_gain);
      ok = false;
    }
  }
  if (run_flooder) {
    const CongestionRunResult* baseline = find_run("flooder_baseline");
    const CongestionRunResult* attacked = find_run("flooder_unshaped");
    const CongestionRunResult* defended = find_run("flooder_shaped");
    const double degradation =
        baseline->delivery > 0.0 ? 1.0 - defended->delivery / baseline->delivery : 1.0;
    results.push_back({"flooder_degradation", "fraction", degradation});
    std::printf("flooder: baseline %.1f%%, unshaped %.1f%%, shaped %.1f%% "
                "(degradation %.1f%%)\n",
                baseline->delivery * 100.0, attacked->delivery * 100.0,
                defended->delivery * 100.0, degradation * 100.0);
    if (degradation > require_protection) {
      std::fprintf(stderr, "FAIL: flooder degradation %.2f > allowed %.2f\n", degradation,
                   require_protection);
      ok = false;
    }
  }
  if (run_fairness) {
    const CongestionRunResult* fair = find_run("fairness_shaped");
    const double lo = std::min(fair->delivery, fair->delivery_second);
    const double hi = std::max(fair->delivery, fair->delivery_second);
    const double ratio = hi > 0.0 ? lo / hi : 0.0;
    results.push_back({"fairness_min_max_ratio", "ratio", ratio});
    std::printf("fairness (shaped): sink 28 %.1f%%, sink 39 %.1f%% (min/max %.2f)\n",
                fair->delivery * 100.0, fair->delivery_second * 100.0, ratio);
    if (require_fairness > 0.0 && ratio < require_fairness) {
      std::fprintf(stderr, "FAIL: fairness ratio %.2f < required %.2f\n", ratio,
                   require_fairness);
      ok = false;
    }
  }

  std::printf("\nShape to check: unshaped delivery collapses as the interval shrinks while\n");
  std::printf("shaped delivery degrades gracefully; the flooder starves well-behaved traffic\n");
  std::printf("only when shaping is off; two shaped sinks split delivery evenly.\n");

  if (recorded) {
    recorded->Verify(results, bench::RecordedRows::kAll);
  } else {
    bench::WriteBenchJson(out, "congestion_sweep", results);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
