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
// record into private buffers written to --trace-out in index order after
// the join.

#ifndef BENCH_REPLICATE_H_
#define BENCH_REPLICATE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/replication.h"
#include "src/trace/trace.h"
#include "src/trace/trace_writer.h"

namespace diffusion {
namespace bench {

// The --trace-out file, truncated; null when `trace_out` is empty. Exits
// with status 1 ("FAIL: cannot write <path>") when it cannot be opened, so
// an unwritable path fails before any replicate runs.
std::unique_ptr<TraceWriter> OpenTraceOut(const std::string& trace_out);

// Buffer i is non-null iff `tracing` and traced(i) (a null `traced` selects
// replicate 0 only — the benches' "trace the first run" convention).
std::vector<std::unique_ptr<MemoryTraceSink>> MakeTraceBuffers(
    size_t count, bool tracing, const std::function<bool(size_t)>& traced);

// Writes every buffered event, in buffer order, to `writer`, the file at
// `path`; exits with status 1 when the writes fail.
void WriteTraceBuffers(const std::vector<std::unique_ptr<MemoryTraceSink>>& buffers,
                       const std::string& path, TraceWriter* writer);

// Runs run(i, buffer_i) for i in [0, count) across `jobs` workers, returns
// the per-replicate results in index order, and writes the trace buffers to
// `trace_out` (when non-empty) after the pool joins.
template <typename Result>
std::vector<Result> RunReplicates(unsigned jobs, size_t count, const std::string& trace_out,
                                  const std::function<bool(size_t)>& traced,
                                  const std::function<Result(size_t, TraceSink*)>& run) {
  const std::unique_ptr<TraceWriter> writer = OpenTraceOut(trace_out);
  const std::vector<std::unique_ptr<MemoryTraceSink>> buffers =
      MakeTraceBuffers(count, writer != nullptr, traced);
  ReplicationPool pool(jobs);
  std::vector<Result> results =
      pool.Map<Result>(count, [&run, &buffers](size_t i) { return run(i, buffers[i].get()); });
  if (writer != nullptr) {
    WriteTraceBuffers(buffers, trace_out, writer.get());
  }
  return results;
}

}  // namespace bench
}  // namespace diffusion

#endif  // BENCH_REPLICATE_H_
