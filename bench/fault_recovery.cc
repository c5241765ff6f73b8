// Fault-recovery benchmark: proves diffusion's local repair (§3.1, §7).
//
// "When a reinforced path fails, it is locally repaired": there is no repair
// protocol to trigger — the next exploratory flood and interest refresh
// re-excite whatever paths survive, and reinforcement moves delivery onto
// them. This bench injects deterministic faults (src/fault) into the Figure 7
// surveillance workload and reports time-to-repair, deliveries lost during
// the outage, and the reinforcement churn repair cost.
//
// Emits BENCH_fault.json ("diffusion-bench-v1" schema). The output contains
// no wall-clock values: the same seed and plan produce a byte-identical file
// on every run/machine. Flags:
//   --scenario=NAME   crash | degrade | partition | all (default all)
//   --seed=N          simulation seed (default 1)
//   --sources=N       1..4 active Figure 7 sources (default 1)
//   --plan=PATH       diffusion-fault-plan-v1 JSON overriding the built-in
//                     plan (single-scenario runs only)
//   --out=PATH        where to write the JSON (default BENCH_fault.json)
//   --check=PATH      re-run the scenarios whose rows the file holds (with
//                     --seed, --sources and --plan) and fail unless the run
//                     emits exactly the file's rows with its values; writes
//                     nothing
//   --print-plan      dump the built-in plan JSON for --scenario and exit
//   --trace-out=PATH  JSONL flight-recorder trace of the run
//   --require-repair  exit 1 unless every scenario repaired within its bound
//                     (2x the interest refresh period) — the CI gate

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_json.h"
#include "bench/replicate.h"
#include "src/fault/scenarios.h"

namespace diffusion {
namespace {

void AppendScenarioResults(const std::string& prefix, const FaultScenarioResult& result,
                           std::vector<bench::BenchResult>* out) {
  out->push_back({prefix + "_time_to_repair", "s", result.time_to_repair_s});
  out->push_back({prefix + "_repair_bound", "s", result.repair_bound_s});
  out->push_back({prefix + "_delivery_pre", "%", result.delivery_pre * 100.0});
  out->push_back({prefix + "_delivery_during", "%", result.delivery_during * 100.0});
  out->push_back({prefix + "_delivery_post", "%", result.delivery_post * 100.0});
  out->push_back({prefix + "_events_lost_during_outage", "events",
                  static_cast<double>(result.events_lost_during_outage)});
  out->push_back({prefix + "_reinforcements_after_fault", "msgs",
                  static_cast<double>(result.reinforcements_after_fault)});
  out->push_back({prefix + "_negative_reinforcements_after_fault", "msgs",
                  static_cast<double>(result.negative_reinforcements_after_fault)});
  out->push_back({prefix + "_stale_gradients_at_sample", "gradients",
                  static_cast<double>(result.stale_gradients_at_sample)});
  if (result.faulted_node != kBroadcastId) {
    out->push_back({prefix + "_faulted_node", "id", static_cast<double>(result.faulted_node)});
  }
}

int Main(int argc, char** argv) {
  const std::string check = bench::StringFlag(argc, argv, "check");
  const std::string scenario_flag = bench::StringFlag(argc, argv, "scenario", "all");
  const uint64_t seed = static_cast<uint64_t>(bench::IntFlag(argc, argv, "seed", 1));
  const int sources = static_cast<int>(bench::IntFlag(argc, argv, "sources", 1));
  const std::string plan_path = bench::StringFlag(argc, argv, "plan");
  const std::string out = bench::StringFlag(argc, argv, "out", "BENCH_fault.json");
  const std::string trace_out = bench::StringFlag(argc, argv, "trace-out");
  const bool require_repair = bench::BoolFlag(argc, argv, "require-repair");
  const bool print_plan = bench::BoolFlag(argc, argv, "print-plan");
  const unsigned jobs = bench::JobsFlag(argc, argv);

  std::vector<FaultScenario> scenarios;
  if (!check.empty()) {
    std::string error;
    if (!bench::ValidateBenchJson(check, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    for (FaultScenario scenario :
         {FaultScenario::kCrash, FaultScenario::kDegrade, FaultScenario::kPartition}) {
      double unused = 0.0;
      if (bench::ReadBenchValue(check, std::string(FaultScenarioName(scenario)) + "_time_to_repair",
                                &unused)) {
        scenarios.push_back(scenario);
      }
    }
    if (scenarios.empty()) {
      std::fprintf(stderr, "FAIL: %s holds no scenario's rows\n", check.c_str());
      return 1;
    }
  } else if (scenario_flag == "all") {
    scenarios = {FaultScenario::kCrash, FaultScenario::kDegrade, FaultScenario::kPartition};
  } else {
    FaultScenario scenario;
    if (!FaultScenarioFromName(scenario_flag, &scenario)) {
      std::fprintf(stderr, "unknown --scenario=%s (crash|degrade|partition|all)\n",
                   scenario_flag.c_str());
      return 1;
    }
    scenarios = {scenario};
  }

  std::string plan_json;
  if (!plan_path.empty()) {
    if (scenarios.size() != 1) {
      std::fprintf(stderr, "--plan requires a single --scenario (it labels the run)\n");
      return 1;
    }
    std::ifstream in(plan_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", plan_path.c_str());
      return 1;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    plan_json = contents.str();
  }

  std::vector<bench::BenchResult> results;
  bool all_repaired_in_bound = true;

  if (print_plan) {
    for (FaultScenario scenario : scenarios) {
      FaultScenarioParams params;
      params.scenario = scenario;
      params.seed = seed;
      params.sources = sources;
      params.plan_json = plan_json;
      std::printf("%s", FaultPlanToJson(BuiltinScenarioPlan(params)).c_str());
    }
    return 0;
  }

  std::printf("=== Fault recovery (seed %llu, %d source%s, %u jobs) ===\n\n",
              static_cast<unsigned long long>(seed), sources, sources == 1 ? "" : "s", jobs);

  // Scenarios are independent simulations; fan them out --jobs at a time.
  // Results are consumed in scenario order below, so BENCH_fault.json stays
  // byte-identical per (seed, plan) at every --jobs. Only the first scenario
  // traces (one recorder per file).
  const std::vector<FaultScenarioResult> scenario_results =
      bench::RunReplicates<FaultScenarioResult>(
          jobs, scenarios.size(), trace_out, nullptr,
          [&scenarios, seed, sources, &plan_json](size_t i, TraceSink* sink) {
            FaultScenarioParams params;
            params.scenario = scenarios[i];
            params.seed = seed;
            params.sources = sources;
            params.plan_json = plan_json;
            params.trace_sink = sink;
            return RunFaultScenario(params);
          });

  for (size_t i = 0; i < scenarios.size(); ++i) {
    const char* name = FaultScenarioName(scenarios[i]);
    const FaultScenarioResult& result = scenario_results[i];
    AppendScenarioResults(name, result, &results);

    const bool repaired = result.time_to_repair_s >= 0.0;
    const bool in_bound = repaired && result.time_to_repair_s <= result.repair_bound_s;
    all_repaired_in_bound = all_repaired_in_bound && in_bound;
    std::printf("%-10s  repair %7.1f s (bound %5.1f s)  delivery %5.1f%% -> %5.1f%% -> %5.1f%%"
                "  lost %llu  churn +%llu/-%llu%s\n",
                name, result.time_to_repair_s, result.repair_bound_s,
                result.delivery_pre * 100.0, result.delivery_during * 100.0,
                result.delivery_post * 100.0,
                static_cast<unsigned long long>(result.events_lost_during_outage),
                static_cast<unsigned long long>(result.reinforcements_after_fault),
                static_cast<unsigned long long>(result.negative_reinforcements_after_fault),
                in_bound ? "" : "  [MISSED BOUND]");
  }

  std::printf("\nShape to check: every scenario resumes delivery within 2x the interest\n");
  std::printf("refresh period — repair rides the refresh/exploratory cadence the protocol\n");
  std::printf("already pays for, with no dedicated recovery machinery.\n");

  if (check.empty()) {
    if (!bench::WriteBenchJson(out, "fault_recovery", results)) {
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::string error;
    if (!bench::MatchesRecorded(check, results, bench::RecordedRows::kAll, &error)) {
      std::fprintf(stderr, "FAIL: %s differs from this run: %s\n", check.c_str(), error.c_str());
      return 1;
    }
    std::printf("%s: valid %s file; every row reproduced\n", check.c_str(),
                bench::kBenchJsonSchema);
  }

  if (require_repair && !all_repaired_in_bound) {
    std::fprintf(stderr, "FAIL: a scenario did not repair within its bound\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
