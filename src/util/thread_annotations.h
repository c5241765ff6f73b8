// Ownership markers for the sharded engine's threading contract.
//
// The sharded engine (src/sim/sharded_engine.h) runs regions on worker
// threads without locks. Which structures are pinned to one region's worker
// thread, and which are touched only between windows, is declared with the
// markers below. They expand to nothing for every compiler, but
// diffusion-lint's DL008 rule reads them: in a class that owns threads or a
// mutex, every mutable member must be const, atomic, or carry one of these
// markers naming the handoff discipline that protects it
// (docs/ARCHITECTURE.md, "Threading contract").
//
// The repo holds no lock, so no capability annotation is defined. Clang
// builds still compile with -Wthread-safety; a lock added later brings its
// own annotated capability wrapper and guarded_by attributes with it.

#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

// Member touched only by the worker thread that owns its region (static
// region->thread assignment) inside a window; the barrier's release/acquire
// handoff publishes it between windows.
#define DIFFUSION_REGION_PINNED

// Member touched only between window barriers (or before the first run /
// after the last), always by the single barrier thread.
#define DIFFUSION_BARRIER_OWNED

// Class is safe to use from one thread at a time but performs no internal
// synchronization ("thread-compatible"): instances are pinned to their
// owning region/replicate and must never be shared across workers.
#define DIFFUSION_THREAD_COMPATIBLE

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
