// Portable thread-safety annotations over Clang's capability analysis.
//
// The sharded engine (src/sim/sharded_engine.h) made the repo genuinely
// concurrent, and its load-bearing invariants — which member is guarded by
// which mutex, which side of the window barrier a function runs on, which
// structures are pinned to one region's worker thread — were previously
// prose. These macros turn the prose into attributes `-Wthread-safety`
// checks on every clang build (the CI tier1/tidy/analyze legs); under gcc
// they expand to nothing, so the gcc-only dev container builds unchanged.
//
// Two annotation families live here:
//
//  1. Capability annotations (DIFFUSION_GUARDED_BY, DIFFUSION_REQUIRES,
//     DIFFUSION_ASSERT_CAPABILITY, ...) — enforced by clang. The repo's
//     capabilities are phantom roles (below); a lock would need its own
//     DIFFUSION_CAPABILITY wrapper with acquire/release annotations,
//     since a raw std::mutex is not an annotated capability type.
//  2. Ownership markers (DIFFUSION_REGION_PINNED, DIFFUSION_BARRIER_OWNED,
//     DIFFUSION_THREAD_COMPATIBLE) — no-ops for every compiler, but read by
//     diffusion-lint's DL008 rule: in a class that owns threads or a mutex,
//     every mutable member must be const, atomic, GUARDED_BY a lock, or
//     carry one of these markers naming the handoff discipline that
//     protects it instead (docs/ARCHITECTURE.md, "Threading contract").
//
// Phantom capabilities — a DIFFUSION_CAPABILITY class with an Assert()
// method annotated DIFFUSION_ASSERT_CAPABILITY — express lock-free
// disciplines like the region mailboxes' single-writer rule: Post() REQUIRES
// the writer role, and the posting path must Assert() it first or the clang
// build fails (see src/radio/region_mailbox.h).

#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define DIFFUSION_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef DIFFUSION_THREAD_ANNOTATION__
#define DIFFUSION_THREAD_ANNOTATION__(x)  // not clang: all annotations vanish
#endif

// ---- capability annotations (checked by clang -Wthread-safety) ----------

// Declares a class to be a capability (a mutex, or a phantom role).
#define DIFFUSION_CAPABILITY(x) DIFFUSION_THREAD_ANNOTATION__(capability(x))

// Data member readable/writable only while holding `x`.
#define DIFFUSION_GUARDED_BY(x) DIFFUSION_THREAD_ANNOTATION__(guarded_by(x))

// Pointer member whose *pointee* is guarded by `x`.
#define DIFFUSION_PT_GUARDED_BY(x) DIFFUSION_THREAD_ANNOTATION__(pt_guarded_by(x))

// Function requires the listed capabilities held on entry (and does not
// release them).
#define DIFFUSION_REQUIRES(...) \
  DIFFUSION_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

// Function must NOT be called with the capability held (deadlock guard).
#define DIFFUSION_EXCLUDES(...) \
  DIFFUSION_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Declares that, from this call on, the calling function holds the
// capability — the dynamic-check escape hatch phantom roles are built on.
#define DIFFUSION_ASSERT_CAPABILITY(...) \
  DIFFUSION_THREAD_ANNOTATION__(assert_capability(__VA_ARGS__))

// Accessor returning a reference to the capability `x` (so the analysis can
// equate `pool.writer_role()` with the member it returns).
#define DIFFUSION_RETURN_CAPABILITY(x) DIFFUSION_THREAD_ANNOTATION__(lock_returned(x))

// Opts one function out of the analysis. Use sparingly, with a comment.
#define DIFFUSION_NO_THREAD_SAFETY_ANALYSIS \
  DIFFUSION_THREAD_ANNOTATION__(no_thread_safety_analysis)

// ---- ownership markers (read by diffusion-lint DL008; never compiled) ---

// Member touched only by the worker thread that owns its region (static
// region->thread assignment) inside a window; the barrier's release/acquire
// handoff publishes it between windows. Not a lock: clang cannot express "one
// distinct owner per array element", so DL008 accepts this marker instead.
#define DIFFUSION_REGION_PINNED

// Member touched only between window barriers (or before the first run /
// after the last), always by the single barrier thread.
#define DIFFUSION_BARRIER_OWNED

// Class is safe to use from one thread at a time but performs no internal
// synchronization ("thread-compatible"): instances are pinned to their
// owning region/replicate and must never be shared across workers.
#define DIFFUSION_THREAD_COMPATIBLE

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
