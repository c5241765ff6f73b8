// Parallel replication of independent seeded simulation runs.
//
// The paper's headline figures are means over 3-5 independent replicates;
// each replicate is an isolated (seed, params) simulation with no shared
// state — embarrassingly parallel, the same run-level parallelism parallel
// discrete-event simulators exploit. ReplicationPool fans replicates out
// across worker threads while keeping every observable output bit-identical
// to the serial run:
//
//   - results are returned (and must be aggregated) in replicate index
//     order, never completion order;
//   - each replicate owns a private Simulator/Rng/trace buffer — nothing in
//     the library is shared across replicates (src/util/logging's level is
//     the one process-wide knob, and it is atomic);
//   - buffered per-replicate traces are written to disk in index order after
//     the pool joins (bench::RunReplicates, bench/replicate.h).
//
// jobs == 1 runs every replicate inline on the calling thread — exactly the
// pre-pool serial behavior, no threads spawned.

#ifndef SRC_SIM_REPLICATION_H_
#define SRC_SIM_REPLICATION_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

namespace diffusion {

// Thrown by Run/Map when Cancel() stopped the pool before every replicate
// executed.
class ReplicationCancelled : public std::runtime_error {
 public:
  ReplicationCancelled() : std::runtime_error("replication cancelled before all replicates ran") {}
};

class ReplicationPool {
 public:
  // jobs == 0 picks the hardware concurrency (at least 1).
  explicit ReplicationPool(unsigned jobs = 0) : jobs_(ResolveJobs(jobs)) {}

  // 0 -> std::thread::hardware_concurrency() (1 if that reports 0).
  static unsigned ResolveJobs(unsigned jobs);

  unsigned jobs() const { return jobs_; }

  // Runs task(i) for every i in [0, count) across min(jobs, count) workers.
  // Replicates are handed out in index order; completion order is
  // unspecified. If a task throws, the remaining unstarted replicates are
  // cancelled, every in-flight replicate finishes, and the lowest-index
  // exception is rethrown after the join. If Cancel() skipped replicates
  // (and no task threw), throws ReplicationCancelled.
  void Run(size_t count, const std::function<void(size_t)>& task);

  // Run() with a result slot per replicate, returned in index order.
  // Aggregation that consumes the returned vector front-to-back is therefore
  // independent of jobs().
  template <typename Result>
  std::vector<Result> Map(size_t count, const std::function<Result(size_t)>& task) {
    std::vector<Result> results(count);
    Run(count, [&results, &task](size_t i) { results[i] = task(i); });
    return results;
  }

  // Stops unstarted replicates; in-flight ones run to completion. Safe to
  // call from worker tasks or other threads. Sticky for this pool.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  // Replicates actually executed by the most recent Run/Map.
  size_t executed() const { return executed_.load(std::memory_order_relaxed); }

 private:
  // Immutable after construction; everything else shared with workers is
  // atomic, so the pool itself needs no mutex (Run()'s internal handoff
  // state lives on the calling thread's stack).
  const unsigned jobs_;
  std::atomic<bool> cancelled_{false};
  std::atomic<size_t> executed_{0};
};

}  // namespace diffusion

#endif  // SRC_SIM_REPLICATION_H_
