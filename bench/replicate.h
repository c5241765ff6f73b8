// --jobs replication glue for the bench binaries.
//
// Every figure in the paper is a mean over 3-5 independent (seed, params)
// replicates; the benches reproduce them by fanning those replicates out
// over a ReplicationPool. A bench's --jobs=N sets the worker threads: 0 or
// absent = hardware concurrency (ReplicationPool::ResolveJobs); 1 = the
// serial pre-pool behavior (no threads spawned).
//
// Output is bit-identical for every N: results come back in index (= seed)
// order, aggregation consumes them front-to-back, and traced replicates
// record into private buffers merged to --trace-out in index order after
// the join.

#ifndef BENCH_REPLICATE_H_
#define BENCH_REPLICATE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/replication.h"
#include "src/trace/trace.h"

namespace diffusion {
namespace bench {

// Buffer i is non-null iff `trace_out` is non-empty and traced(i) (a null
// `traced` selects replicate 0 only — the benches' "trace the first run"
// convention).
std::vector<std::unique_ptr<MemoryTraceSink>> MakeTraceBuffers(
    size_t count, const std::string& trace_out, const std::function<bool(size_t)>& traced);

// Runs run(i, buffer_i) for i in [0, count) across `jobs` workers, returns
// the per-replicate results in index order, and merges the trace buffers
// into `trace_out` (when non-empty) after the pool joins.
template <typename Result>
std::vector<Result> RunReplicates(unsigned jobs, size_t count, const std::string& trace_out,
                                  const std::function<bool(size_t)>& traced,
                                  const std::function<Result(size_t, TraceSink*)>& run) {
  const std::vector<std::unique_ptr<MemoryTraceSink>> buffers =
      MakeTraceBuffers(count, trace_out, traced);
  ReplicationPool pool(jobs);
  std::vector<Result> results =
      pool.Map<Result>(count, [&run, &buffers](size_t i) { return run(i, buffers[i].get()); });
  if (!trace_out.empty()) {
    MergeTraceBuffers(trace_out, buffers);
  }
  return results;
}

}  // namespace bench
}  // namespace diffusion

#endif  // BENCH_REPLICATE_H_
