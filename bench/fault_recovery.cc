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
// on every run/machine. A scenario's repair bound is 2x the interest refresh
// period; --require-repair makes missing it fail the run (the CI gate).

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
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
  std::string scenario_flag = "all";
  int seed = 1;
  int sources = 1;
  std::string plan_path;
  std::string out = "BENCH_fault.json";
  std::string check;
  bool print_plan = false;
  std::string trace_out;
  bool require_repair = false;
  int jobs = 0;
  bench::ParseFlags(argc, argv,
                    {{"scenario", &scenario_flag, "crash | degrade | partition | all"},
                     {"seed", &seed, "simulation seed"},
                     {"sources", &sources, "active Figure 7 sources", 1, 4},
                     {"plan", &plan_path, "fault-plan JSON replacing the built-in plan"},
                     {"out", &out, "where to write the JSON"},
                     {"check", &check, "re-run the scenarios this file holds; write nothing"},
                     {"print-plan", &print_plan, "print the built-in plan and exit"},
                     {"trace-out", &trace_out, "JSONL trace of the first scenario"},
                     {"require-repair", &require_repair, "fail on a repair past its bound"},
                     {"jobs", &jobs, "worker threads; 0 = all cores"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));

  std::vector<FaultScenario> scenarios;
  std::optional<bench::RecordedFile> recorded;
  if (!check.empty()) {
    recorded.emplace(check);
    for (FaultScenario scenario :
         {FaultScenario::kCrash, FaultScenario::kDegrade, FaultScenario::kPartition}) {
      if (recorded->Has(std::string(FaultScenarioName(scenario)) + "_time_to_repair")) {
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
              static_cast<unsigned long long>(seed), sources, sources == 1 ? "" : "s", workers);

  // Scenarios are independent simulations; fan them out --jobs at a time.
  // Results are consumed in scenario order below, so BENCH_fault.json stays
  // byte-identical per (seed, plan) at every --jobs. Only the first scenario
  // traces (one recorder per file).
  const std::vector<FaultScenarioResult> scenario_results =
      bench::RunReplicates<FaultScenarioResult>(
          workers, scenarios.size(), trace_out, nullptr,
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

  if (recorded) {
    recorded->Verify(results, bench::RecordedRows::kAll);
  } else {
    bench::WriteBenchJson(out, "fault_recovery", results);
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
