// Simulation driver: a scheduler plus the root random stream.
//
// Everything time- or randomness-dependent in the library hangs off a
// Simulator so that a single seed reproduces an entire experiment.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/sim/event_scheduler.h"
#include "src/trace/trace.h"
#include "src/util/arena.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace diffusion {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  EventScheduler& scheduler() { return scheduler_; }
  const EventScheduler& scheduler() const { return scheduler_; }

  SimTime now() const { return scheduler_.now(); }

  // Root random stream. Components should Fork() their own stream once at
  // construction so that event interleaving does not change their draws.
  Rng& rng() { return rng_; }

  // Simulation-lifetime storage. The pool recycles hot-path objects (pooled
  // message bodies); the arena backs it. Declared before the scheduler so
  // pending closures holding pooled objects are destroyed first.
  Arena& arena() { return arena_; }
  SlotPool& slot_pool() { return slot_pool_; }

  // Convenience forwarding to the scheduler.
  EventId At(SimTime when, EventCallback callback) {
    return scheduler_.ScheduleAt(when, std::move(callback));
  }
  EventId After(SimDuration delay, EventCallback callback) {
    return scheduler_.ScheduleAfter(delay, std::move(callback));
  }
  bool Cancel(EventId id) { return scheduler_.Cancel(id); }

  size_t RunUntil(SimTime end) { return scheduler_.RunUntil(end); }
  size_t RunAll() { return scheduler_.RunAll(); }

  // ---- flight-recorder tracing (src/trace) ----
  //
  // Null (the default) disables tracing. Emit sites guard on tracing()
  // before constructing an event, so a disabled run pays one pointer test.
  // The sink is borrowed and must outlive every event emitted into it.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
  TraceSink* trace_sink() const { return trace_sink_; }
  bool tracing() const { return trace_sink_ != nullptr; }
  void Trace(const TraceEvent& event) {
    if (trace_sink_ != nullptr) {
      trace_sink_->OnEvent(event);
    }
  }

 private:
  Arena arena_;
  SlotPool slot_pool_{&arena_};
  EventScheduler scheduler_;
  Rng rng_;
  TraceSink* trace_sink_ = nullptr;
};

}  // namespace diffusion

#endif  // SRC_SIM_SIMULATOR_H_
