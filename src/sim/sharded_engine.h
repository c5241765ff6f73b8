// Parallel single-run simulation core: conservative time windows over
// spatially sharded schedulers.
//
// One simulation run is partitioned into regions. Each region owns a full
// Simulator (pairing-heap scheduler, arena, RNG stream, trace buffer) and
// advances independently inside half-open time windows [k·L, (k+1)·L). At
// each window boundary every region has reached the same time, and a
// RegionCoupler hands cross-region work over in one call — single-threaded,
// in a fixed (time, source region, sequence) order — before the next window
// starts.
//
// Idle windows cost nothing. Before each window the barrier thread peeks
// every region's earliest pending event; whole windows before it would run,
// post and trace nothing, so the cursor jumps over them in one step (staying
// on the same window grid) and only windows holding an event pay the thread
// handoff, the coupler drain and the trace merge. windows_run() counts grid
// windows covered, barriers_run() the barriers that actually executed.
//
// The window length L is the conservative lookahead: no event executed
// inside a window may affect another region earlier than the next barrier.
// For the radio substrate that bound comes from frame airtime (a frame
// transmitted in window k cannot finish before barrier k+1 as long as
// L ≤ its on-air duration); src/radio/region_map.h derives it.
//
// Determinism contract (the DL003 guarantee ReplicationPool defends for
// replicates, extended to one run): the engine's output — every region's
// event stream, the merged trace, all statistics — is a pure function of
// (construction order, seed, regions, window). The thread count only decides
// which worker advances which region between barriers; regions never share
// mutable state inside a window, so output is byte-identical at any thread
// count, including threads=1. A one-region engine degenerates to the
// sequential Simulator exactly (region 0 keeps the run seed).
//
// The barrier is lock-free: a release increment of a generation counter
// starts a window and a release decrement of a running count ends each
// worker's share. Waiting threads park in std::atomic::wait.

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace diffusion {

// Couples regions at window barriers. The radio layer's RegionBridge is the
// production implementation; tests substitute their own.
class RegionCoupler {
 public:
  virtual ~RegionCoupler() = default;

  // Drains everything the regions posted during the window that just ended
  // and schedules it into the destination regions' simulators at or after
  // `barrier`. Runs once per barrier, on the barrier thread, with every
  // region quiescent.
  //
  // Only barriers closing a window in which some region may have run an
  // event call it: the engine skips windows with no pending event. A
  // coupler must therefore only relay work that region events posted and
  // never originate work of its own (a timer, a post made outside a window).
  virtual void Drain(SimTime barrier) = 0;
};

// Seed of region `region`'s Simulator under run seed `seed`. Region 0 keeps
// the run seed itself — a one-region sharded run reproduces the sequential
// engine byte-for-byte — and other regions get SplitMix64-derived
// independent streams.
uint64_t RegionSeed(uint64_t seed, int region);

struct ShardedEngineConfig {
  int regions = 1;
  // Worker threads advancing regions between barriers; 0 means
  // std::thread::hardware_concurrency(). Clamped to the region count. Output
  // is identical for every value.
  unsigned threads = 1;
  // Conservative lookahead window (must be positive).
  SimDuration window = 1 * kMillisecond;
  uint64_t seed = 1;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineConfig& config);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int regions() const { return static_cast<int>(sims_.size()); }
  unsigned threads() const { return threads_; }
  SimDuration window() const { return window_; }

  Simulator& region_sim(int region) { return *sims_[static_cast<size_t>(region)]; }

  // The coupler is borrowed and drained at every barrier; null disables
  // cross-region handoff (isolated regions).
  void set_coupler(RegionCoupler* coupler) { coupler_ = coupler; }

  // Routes every region's trace into a per-region buffer and merges the
  // buffers into `sink` at each barrier, ordered by (time, region, per-region
  // emission order). The merged stream is invariant under the thread count.
  // Null detaches tracing. Constant memory: buffers drain at every barrier.
  void set_merged_trace_sink(TraceSink* sink);

  // Advances every region to `end` inclusive (the Simulator::RunUntil
  // convention) in conservative windows, draining the coupler and merging
  // traces at each barrier. Windows before the earliest pending event are
  // skipped without a barrier (see file comment). Returns events executed
  // across all regions during this call. Subsequent calls continue from
  // where the last ended.
  uint64_t RunUntil(SimTime end);

  // Events executed across all regions since construction.
  uint64_t events_executed() const;

  // Windows of the grid covered since construction, skipped ones included.
  uint64_t windows_run() const { return windows_run_; }
  // Barriers that actually executed: windows_run() minus the idle windows
  // skipped. Deterministic, like windows_run().
  uint64_t barriers_run() const { return barriers_run_; }

 private:
  static unsigned ResolveThreads(const ShardedEngineConfig& config);

  void RunShare(unsigned tid, SimTime bound);
  void RunWindow(SimTime bound);
  void MergeTraces();  // barrier thread only
  // Earliest pending event over all regions; barrier thread only.
  SimTime NextEventTime() const;
  void WorkerLoop(unsigned tid);

  const SimDuration window_;
  const unsigned threads_;
  // Each region's simulator (and its per-region slots below) is touched by
  // exactly one worker inside a window; the barrier's release/acquire
  // handoff publishes it to the next owner between windows.
  std::vector<std::unique_ptr<Simulator>> sims_ DIFFUSION_REGION_PINNED;
  std::vector<uint64_t> events_by_region_ DIFFUSION_REGION_PINNED;
  RegionCoupler* coupler_ DIFFUSION_BARRIER_OWNED = nullptr;

  TraceSink* merged_sink_ DIFFUSION_BARRIER_OWNED = nullptr;
  std::vector<std::unique_ptr<MemoryTraceSink>> region_traces_ DIFFUSION_REGION_PINNED;
  struct MergeRef {
    SimTime when;
    int region;
    size_t index;
  };
  std::vector<MergeRef> merge_scratch_ DIFFUSION_BARRIER_OWNED;

  SimTime cursor_ DIFFUSION_BARRIER_OWNED = 0;  // start of the next window
  uint64_t windows_run_ DIFFUSION_BARRIER_OWNED = 0;
  uint64_t barriers_run_ DIFFUSION_BARRIER_OWNED = 0;

  // Barrier state. Workers advance their statically assigned regions
  // (region % threads == tid) when `generation_` moves, then decrement
  // `running_`. The barrier thread writes bound_ and running_ before its
  // release increment of generation_; a worker's acquire of the new
  // generation sees both, and its release decrement of running_ hands its
  // regions back to the barrier thread's acquire of zero. Those two edges
  // order every cross-thread access to the region simulators.
  std::atomic<uint32_t> generation_{0};
  std::atomic<unsigned> running_{0};
  std::atomic<bool> stop_{false};
  SimTime bound_ DIFFUSION_BARRIER_OWNED = 0;  // published by generation_
  // One slot per region, written by the region's owner inside RunShare and
  // read by the barrier thread after the window joins — region-pinned, like
  // the simulators whose exceptions it carries.
  std::vector<std::exception_ptr> worker_errors_ DIFFUSION_REGION_PINNED;
  std::vector<std::thread> workers_;
};

}  // namespace diffusion

#endif  // SRC_SIM_SHARDED_ENGINE_H_
