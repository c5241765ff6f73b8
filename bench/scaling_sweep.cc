// Scalability sweep — the prior-work claim §1 leans on: "[the simulation
// study] evaluated their performance through simulation, finding that
// scalability is good as numbers of nodes and traffic increases."
//
// Sweeps the network size with the simulation-era configuration (1.6 Mb/s
// radios, 5 sources, 5 sinks, suppression on) and reports bytes per event
// and event delivery. Expected shape: bytes/event grows sub-linearly with
// node count (floods touch every node, but the reinforced data paths don't),
// and delivery stays high.

#include <cstdio>

#include "bench/harness.h"
#include "bench/replicate.h"
#include "src/testbed/experiments.h"
#include "src/testbed/harness.h"

namespace diffusion {
namespace {

int Main(int argc, char** argv) {
  int runs = 3;
  int minutes = 3;
  int base_seed = 5000;
  int jobs = 0;
  std::string trace_out;
  std::string out;
  // The --out file holds the wall clock per sweep point — the matching fast
  // path shows up there as simulator throughput.
  bench::ParseFlags(argc, argv,
                    {{"runs", &runs, "replicates per point", 1},
                     {"minutes", &minutes, "simulated minutes per replicate", 1},
                     {"seed", &base_seed, "seed of the first replicate"},
                     {"jobs", &jobs, "worker threads; 0 = all cores"},
                     {"trace-out", &trace_out, "JSONL trace of the first 30-node run"},
                     {"out", &out, "write the wall clock per point as JSON"}});
  const unsigned workers = ReplicationPool::ResolveJobs(static_cast<unsigned>(jobs));

  const size_t node_counts[] = {30, 50, 80, 120};

  if (!trace_out.empty()) {
    std::printf("writing JSONL trace of the first %zu-node run to %s\n", node_counts[0],
                trace_out.c_str());
  }

  std::printf("=== Scalability sweep (5 sources, 5 sinks, suppression on, 1.6 Mb/s,\n");
  std::printf("    %d runs x %d min per point, %u jobs) ===\n\n", runs, minutes, workers);
  std::printf("%-8s  %-18s  %-18s  %-14s\n", "nodes", "bytes/event", "delivery %",
              "bytes/event/node");

  double first_per_node = 0.0;
  std::vector<bench::BenchResult> wall_clock;
  for (size_t nodes : node_counts) {
    RunningStat bytes;
    RunningStat delivery;
    // One batch per sweep point: its `runs` replicates execute --jobs at a
    // time, and the wall clock measures the whole batch. Only the first
    // point's first replicate traces.
    std::vector<ScaleResult> results;
    const double wall_seconds = bench::Seconds([&] {
      results = bench::RunReplicates<ScaleResult>(
          workers, static_cast<size_t>(runs), nodes == node_counts[0] ? trace_out : "", nullptr,
          [nodes, minutes, base_seed](size_t run, TraceSink* sink) {
            ScaleParams params;
            params.nodes = nodes;
            // Scale the field with the node count to hold density (and hop
            // counts per unit area) roughly constant.
            params.field_size = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
            params.duration = static_cast<SimDuration>(minutes) * kMinute;
            params.seed = base_seed + run;
            params.trace_sink = sink;
            return RunScaleExperiment(params);
          });
    });
    for (const ScaleResult& result : results) {
      bytes.Add(result.bytes_per_event);
      delivery.Add(result.delivery_rate * 100.0);
    }
    const double wall_ms = wall_seconds * 1000.0 / static_cast<double>(runs);
    wall_clock.push_back({"wall_clock_" + std::to_string(nodes) + "_nodes", "ms/run", wall_ms});
    const double per_node = bytes.mean() / static_cast<double>(nodes);
    if (first_per_node == 0.0) {
      first_per_node = per_node;
    }
    std::printf("%-8zu  %-18s  %-18s  %-14.1f\n", nodes, FormatWithCI(bytes, 0).c_str(),
                FormatWithCI(delivery, 1).c_str(), per_node);
  }
  std::printf("\nShape to check: per-node cost roughly flat or falling as the network grows\n");
  std::printf("(flood cost is linear in nodes, data-path cost is linear in hops only).\n");
  bench::WriteBenchJson(out, "scaling_sweep", wall_clock);
  return 0;
}

}  // namespace
}  // namespace diffusion

int main(int argc, char** argv) { return diffusion::Main(argc, argv); }
