// Congestion and adversarial-traffic scenarios over the ISI testbed.
//
// The paper's MAC collapses under load (§6.1 reports 55-80% delivery under a
// congested MAC with no remedy beyond duplicate suppression). This module
// runs the §6.1 surveillance workload under deliberately hostile conditions
// and measures how much of the damage the TrafficPolicy shaping layers
// (src/core/traffic_policy.h) undo:
//
//   load_sweep  crank the offered load (shrinking event interval) until the
//               unshaped network collapses; rerun each point shaped
//   flooder     one misbehaving source blasts matching data at many times
//               the agreed rate; well-behaved delivery is the casualty
//   fairness    two sinks (28 "D" and 39 "U") compete for the same data;
//               report the min/max delivery spread between them
//
// Every run is deterministic per (seed, params): a scenario is one
// simulation, so bench/congestion_sweep.cc can fan replicates out over
// --jobs with byte-identical output.

#ifndef SRC_TESTBED_CONGESTION_H_
#define SRC_TESTBED_CONGESTION_H_

#include <string>

#include "src/core/traffic_policy.h"
#include "src/trace/trace.h"
#include "src/util/time.h"

namespace diffusion {

enum class CongestionScenario { kLoadSweep, kFlooder, kFairness };

const char* CongestionScenarioName(CongestionScenario scenario);
bool CongestionScenarioFromName(const std::string& name, CongestionScenario* scenario);

// The shaping configuration the congestion suite holds up against "off":
// every TrafficPolicy layer on, tuned for the testbed radio (~13 kb/s,
// 27-byte fragments, 14 nodes, ~5 hops). Control traffic is never
// rate-limited — keeping interests and reinforcements flowing under overload
// is the point of the priority classes.
TrafficPolicy ReferenceShapingPolicy();

struct CongestionRunParams {
  uint64_t seed = 1;
  // Well-behaved source count: the four Figure 7 source nodes first, then
  // any other non-sink, non-bridge node (redundant sensing of the same
  // event sequence — the workload duplicate suppression exists for).
  int sources = 4;

  // Offered load: one event per source per interval (§6.1 uses 6 s).
  SimDuration event_interval = 6 * kSecond;

  // Shaping under test; TrafficPolicy{} (all layers off) = the seed network.
  TrafficPolicy policy{};

  // Adversary: the first Figure 7 source node turns hostile and publishes
  // matching data every `flooder_interval` instead of participating in the
  // workload (well-behaved sources then come from the remaining three).
  bool flooder = false;
  SimDuration flooder_interval = 250 * kMillisecond;

  // Fairness probe: user node 39 subscribes alongside sink 28.
  bool second_sink = false;

  SimTime warmup = 60 * kSecond;  // measurement starts here
  SimTime end_at = 6 * kMinute;
  double link_delivery = 0.98;  // per-link delivery probability

  // Borrowed flight-recorder sink (null = untraced; the replication harness
  // injects a private per-replicate buffer); must outlive the run.
  TraceSink* trace_sink = nullptr;
};

struct CongestionRunResult {
  // Well-behaved events with a generation instant inside the measurement
  // window, and how many of them the primary sink (eventually) saw.
  uint64_t events_possible = 0;
  uint64_t events_delivered = 0;
  double delivery = 0.0;  // events_delivered / events_possible

  // Second sink's view of the same events (zero unless second_sink).
  uint64_t events_delivered_second = 0;
  double delivery_second = 0.0;

  // Flooder pressure actually applied (zero unless flooder).
  uint64_t flooder_events_generated = 0;
  uint64_t flooder_events_delivered = 0;

  // Network-wide totals over the whole run.
  double bytes_sent = 0.0;  // diffusion-layer bytes, all nodes
  uint64_t mac_drops_queue_full = 0;
  uint64_t mac_drops_rate_limited = 0;
  uint64_t mac_drops_airtime = 0;
  uint64_t mac_priority_evictions = 0;
  uint64_t transmits_jittered = 0;
  uint64_t interest_scope_expansions = 0;
  uint64_t refresh_backoffs = 0;
};

// Runs one congested simulation to completion. Deterministic per params.
CongestionRunResult RunCongestionScenario(const CongestionRunParams& params);

}  // namespace diffusion

#endif  // SRC_TESTBED_CONGESTION_H_
