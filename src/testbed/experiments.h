// Reusable experiment runners for the paper's evaluation (§6).
//
// Each Run* function builds a complete network through TestbedWorld
// (testbed_world.h) plus the filters and applications it needs, runs it for
// a warmup plus a measurement window, and returns the metrics the
// corresponding figure reports. Benchmarks sweep these; integration tests
// pin their qualitative shape and golden values.

#ifndef SRC_TESTBED_EXPERIMENTS_H_
#define SRC_TESTBED_EXPERIMENTS_H_

#include <cstdint>

#include "src/apps/nested_query.h"
#include "src/testbed/testbed_world.h"
#include "src/trace/trace.h"
#include "src/util/time.h"

namespace diffusion {

// ---- Figure 8: in-network aggregation on the ISI testbed ----

// How intermediate nodes aggregate concurrent detections.
enum class AggregationStrategy {
  kNone,
  // §6.1's experiment filter: pass the first copy, suppress duplicates.
  // Adds no latency.
  kSuppression,
  // §3.3's richer variant: hold events for a window, merge detections and
  // annotate with the detector count. Trades the window in latency.
  kCounting,
};

// AggregationStrategy::kCounting's hold window (§3.3).
constexpr SimDuration kCountingWindow = 2 * kSecond;

struct Fig8Params {
  int sources = 4;           // 1..4; uses the Figure-7 source nodes in order
  AggregationStrategy strategy = AggregationStrategy::kSuppression;
  SimDuration duration = 30 * kMinute;
  SimDuration warmup = 60 * kSecond;
  uint64_t seed = 1;
  int exploratory_every = 10;  // 1-in-10 (§6.1)
  DiffusionVariant variant = DiffusionVariant::kTwoPhasePull;
  // Radio duty cycle (1.0 = always-on CSMA, the paper's testbed; lower
  // values model the TDMA-style energy-conserving MAC of §6.1/§7).
  double duty_cycle = 1.0;
  // Replace the calibrated disk channel with log-normal shadowing over the
  // same node positions (gray zones, asymmetric links — §6.4's observed
  // pathologies).
  bool shadowing = false;
  double shadowing_sigma_db = 4.0;
  // Borrowed flight-recorder sink that receives every TraceEvent of the run
  // (null = untraced, which costs nothing). Pass a TraceWriter to stream
  // JSONL; the replication harness passes a private per-replicate buffer so
  // parallel replicates never share a stream. Must outlive the run.
  TraceSink* trace_sink = nullptr;
};

struct Fig8Result {
  double bytes_per_event = 0.0;  // the Figure 8 y-axis
  size_t distinct_events = 0;
  size_t possible_events = 0;
  double delivery_rate = 0.0;  // §6.1 reports 55-80%
  uint64_t diffusion_bytes = 0;
  uint64_t suppressed = 0;  // events absorbed by aggregation filters
  double mean_latency_s = 0.0;  // first-copy end-to-end latency
  // Network-wide relative radio energy per delivered event, from measured
  // listen/receive/send times at power ratios 1:2:2 — the quantity §6.1
  // models but could not measure on hardware.
  double energy_per_event = 0.0;
  // Scheduler events executed over warmup + measurement (the whole-engine
  // work unit bench/engine_throughput divides wall time by).
  uint64_t events_executed = 0;
  // The world's byte ledger at the end of the run.
  MemoryLedger memory;
};

Fig8Result RunFig8(const Fig8Params& params);

// ---- Figure 9: nested vs flat queries on the ISI testbed ----

// Measured after a 60 s warmup.
struct Fig9Params {
  int lights = 4;  // 1..4; uses the Figure-7 light nodes in order
  QueryMode mode = QueryMode::kNested;
  SimDuration duration = 20 * kMinute;
  uint64_t seed = 1;
  TraceSink* trace_sink = nullptr;  // see Fig8Params::trace_sink
};

struct Fig9Result {
  double delivered_fraction = 0.0;  // the Figure 9 y-axis
  size_t possible_events = 0;
  size_t delivered_events = 0;
  uint64_t diffusion_bytes = 0;
  uint64_t triggers_sent = 0;
};

Fig9Result RunFig9(const Fig9Params& params);

// ---- §6.1 scale/ratio ablation (the prior-simulation comparison) ----

// A random field of 1.6 Mb/s radios with a 22 m range, 5 sinks and 64-byte
// messages, as in the ns simulations §6.1 cites; measured after a 30 s
// warmup.
struct ScaleParams {
  size_t nodes = 50;
  int sources = 5;
  bool suppression = true;
  // Exploratory-to-data ratio knobs: the testbed ran events every 6 s with
  // 1-in-10 exploratory (ratio 1:10); the earlier simulations ran data every
  // 0.5 s with exploratory every 50 s (ratio 1:100).
  SimDuration event_interval = 500 * kMillisecond;
  int exploratory_every = 100;
  SimDuration duration = 5 * kMinute;
  uint64_t seed = 1;
  double field_size = 100.0;
  TraceSink* trace_sink = nullptr;  // see Fig8Params::trace_sink
};

struct ScaleResult {
  double bytes_per_event = 0.0;
  size_t distinct_events = 0;
  double delivery_rate = 0.0;
  // Measured relative radio energy per delivered event (power 1:2:2,
  // including idle listening).
  double energy_per_event = 0.0;
  // Communication-only energy (receive + send, no idle listening) per
  // delivered event — the quantity the prior ns simulations' Figure 6b
  // effectively measured (their radios' communication power dwarfed idle).
  double comm_energy_per_event = 0.0;
};

ScaleResult RunScaleExperiment(const ScaleParams& params);

// ---- Geo-scoped flooding ablation (§4.2 extension) on a grid ----

// A grid at 5 m spacing whose 7.6 m radio range links each node to its four
// neighbours (the diagonal is just out of range), measured after a 60 s
// warmup.
struct GeoParams {
  size_t grid = 6;  // grid x grid nodes
  bool geo_scope = false;
  SimDuration duration = 10 * kMinute;
  uint64_t seed = 1;
};

struct GeoResult {
  double bytes_per_event = 0.0;
  double delivery_rate = 0.0;
  uint64_t interests_pruned = 0;
};

GeoResult RunGeoExperiment(const GeoParams& params);

}  // namespace diffusion

#endif  // SRC_TESTBED_EXPERIMENTS_H_
