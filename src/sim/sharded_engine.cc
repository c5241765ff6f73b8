#include "src/sim/sharded_engine.h"

#include <algorithm>

namespace diffusion {
namespace {

// Polls a waiter makes before it parks. Parking costs field10k's barrier a
// 5-7 µs futex wake-up; 1,024 `pause`s last about 25 µs on an Intel Xeon
// (less where `pause` is short), so a share that ends within that spell
// hands over without a system call.
constexpr int kPollsBeforePark = 1024;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Waits until `value` differs from `old` and returns what it became: first
// up to kPollsBeforePark polls when `poll` is set, then parks in
// std::atomic::wait.
template <typename T>
T AwaitChange(const std::atomic<T>& value, T old, bool poll) {
  T now = value.load(std::memory_order_acquire);
  for (int i = 0; poll && now == old && i < kPollsBeforePark; ++i) {
    CpuRelax();
    now = value.load(std::memory_order_acquire);
  }
  while (now == old) {
    value.wait(old, std::memory_order_acquire);
    now = value.load(std::memory_order_acquire);
  }
  return now;
}

}  // namespace

uint64_t RegionSeed(uint64_t seed, int region) {
  if (region == 0) {
    return seed;
  }
  // One SplitMix64 step over (seed, region) — the same mix Rng uses to
  // expand seeds, so region streams are as independent as forked ones.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(region);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

unsigned ShardedEngine::ResolveThreads(const ShardedEngineConfig& config) {
  const int regions = std::max(1, config.regions);
  const unsigned threads =
      config.threads == 0 ? std::thread::hardware_concurrency() : config.threads;
  return std::max(1u, std::min(threads, static_cast<unsigned>(regions)));
}

ShardedEngine::ShardedEngine(const ShardedEngineConfig& config)
    : window_(config.window > 0 ? config.window : 1 * kMillisecond),
      threads_(ResolveThreads(config)),
      poll_(threads_ <= std::thread::hardware_concurrency()) {
  const int regions = std::max(1, config.regions);
  sims_.reserve(static_cast<size_t>(regions));
  for (int r = 0; r < regions; ++r) {
    sims_.push_back(std::make_unique<Simulator>(RegionSeed(config.seed, r)));
  }
  events_by_region_.assign(static_cast<size_t>(regions), 0);
  worker_errors_.assign(static_cast<size_t>(regions), nullptr);
  // Workers handle tids [0, threads-1); the barrier thread runs the last
  // share inline. threads==1 spawns nothing and runs regions in order.
  for (unsigned tid = 0; tid + 1 < threads_; ++tid) {
    workers_.emplace_back([this, tid] { WorkerLoop(tid); });
  }
}

ShardedEngine::~ShardedEngine() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ShardedEngine::set_merged_trace_sink(TraceSink* sink) {
  merged_sink_ = sink;
  if (sink != nullptr && region_traces_.empty()) {
    region_traces_.reserve(sims_.size());
    for (size_t r = 0; r < sims_.size(); ++r) {
      region_traces_.push_back(std::make_unique<MemoryTraceSink>());
    }
  }
  for (size_t r = 0; r < sims_.size(); ++r) {
    sims_[r]->set_trace_sink(sink != nullptr ? region_traces_[r].get() : nullptr);
  }
}

void ShardedEngine::RunShare(unsigned tid, SimTime bound) {
  // Static assignment: region r belongs to thread (r % threads). Ownership
  // never changes mid-run, so a region's scheduler, arena and RNG are only
  // ever touched by one thread inside a window.
  for (size_t r = tid; r < sims_.size(); r += threads_) {
    try {
      events_by_region_[r] += sims_[r]->RunUntil(bound - 1);
    } catch (...) {
      worker_errors_[r] = std::current_exception();
    }
  }
}

void ShardedEngine::WorkerLoop(unsigned tid) {
  uint32_t seen = 0;
  for (;;) {
    seen = AwaitChange(generation_, seen, poll_);
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    RunShare(tid, bound_);
    if (running_.fetch_sub(1, std::memory_order_release) == 1) {
      running_.notify_one();
    }
  }
}

void ShardedEngine::RunWindow(SimTime bound) {
  if (threads_ == 1) {
    RunShare(0, bound);
  } else {
    bound_ = bound;
    running_.store(threads_ - 1, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    RunShare(threads_ - 1, bound);
    for (unsigned left = running_.load(std::memory_order_acquire); left != 0;) {
      left = AwaitChange(running_, left, poll_);
    }
  }
  for (size_t r = 0; r < worker_errors_.size(); ++r) {
    if (worker_errors_[r] != nullptr) {
      std::exception_ptr error = worker_errors_[r];
      worker_errors_[r] = nullptr;
      std::rethrow_exception(error);
    }
  }
}

void ShardedEngine::MergeTraces() {
  if (merged_sink_ == nullptr) {
    return;
  }
  merge_scratch_.clear();
  for (size_t r = 0; r < region_traces_.size(); ++r) {
    const std::vector<TraceEvent>& events = region_traces_[r]->events();
    for (size_t i = 0; i < events.size(); ++i) {
      merge_scratch_.push_back(MergeRef{events[i].when, static_cast<int>(r), i});
    }
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeRef& a, const MergeRef& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.region != b.region) {
                return a.region < b.region;
              }
              return a.index < b.index;
            });
  for (const MergeRef& ref : merge_scratch_) {
    merged_sink_->OnEvent(region_traces_[static_cast<size_t>(ref.region)]->events()[ref.index]);
  }
  for (const auto& buffer : region_traces_) {
    buffer->Clear();
  }
}

SimTime ShardedEngine::NextEventTime() const {
  SimTime next = kNoEventTime;
  for (const auto& sim : sims_) {
    next = std::min(next, sim->scheduler().NextEventTime());
  }
  return next;
}

uint64_t ShardedEngine::RunUntil(SimTime end) {
  uint64_t before = events_executed();
  while (cursor_ <= end) {
    // Jump over whole windows before the earliest pending event: they would
    // run, post and trace nothing. The jump stays on the cursor's window
    // grid and stops at the window holding `end`, which always runs so every
    // region's clock reaches `end`.
    const SimDuration idle = (std::min(NextEventTime(), end) - cursor_) / window_;
    if (idle > 0) {
      cursor_ += idle * window_;
      windows_run_ += static_cast<uint64_t>(idle);
    }
    // Half-open window [cursor, bound): RunUntil is inclusive, so regions
    // advance to bound-1. The final window is trimmed to end inclusive.
    const SimTime bound = std::min<SimTime>(cursor_ + window_, end + 1);
    RunWindow(bound);
    if (coupler_ != nullptr) {
      coupler_->Drain(bound);
    }
    MergeTraces();
    ++windows_run_;
    ++barriers_run_;
    cursor_ = bound;
  }
  return events_executed() - before;
}

uint64_t ShardedEngine::events_executed() const {
  uint64_t total = 0;
  for (uint64_t events : events_by_region_) {
    total += events;
  }
  return total;
}

}  // namespace diffusion
