// TrafficPolicy: the network's optional self-protection layers.
//
// The paper's MAC is deliberately primitive — carrier sense only, no backoff
// beyond the contention window, no rate limiting, no drop policy — so one
// flooding node or a modest offered-load ramp can collapse delivery
// network-wide. TrafficPolicy bundles two deterministic shaping layers
// (SNIPPETS B1 and B3), both off by default:
//
//   jitter      B1  per-message-type randomized transmit jitter
//   rate limit  B3  per-node token buckets for the data and refresh
//                   priority classes (MacShaping); control is never
//                   throttled
//
// With every layer disabled a run is byte-identical to the unshaped
// protocol: no extra RNG draws, no extra events, no trace changes. All
// randomness flows from the node's seeded Rng (diffusion-lint DL002).
//
// The MAC-level layer (B3) is configured here but enforced inside CsmaMac;
// DiffusionNode copies it into the RadioConfig it hands the radio (see
// NodeOptions in src/core/node_options.h).

#ifndef SRC_CORE_TRAFFIC_POLICY_H_
#define SRC_CORE_TRAFFIC_POLICY_H_

#include "src/radio/mac.h"
#include "src/util/time.h"

namespace diffusion {

// B1: randomized delay before originated transmissions, by message type.
// Forwarded floods already carry DiffusionConfig::forward_delay_jitter; this
// layer desynchronizes the *sources* of traffic — originated interests and
// data, and hop-by-hop reinforcements — which otherwise phase-lock when many
// nodes react to the same event. Interests and reinforcements always use
// kControlJitterWindow; the data windows are tunable.
inline constexpr SimDuration kControlJitterWindow = 20 * kMillisecond;

struct TxJitterPolicy {
  bool enabled = false;
  SimDuration data_window = 50 * kMillisecond;      // regular data
  SimDuration refresh_window = 100 * kMillisecond;  // exploratory data
};

// The unified shaping configuration: the node-level jitter plus the
// MAC-level token buckets, which the node hands its radio unchanged as
// MacConfig::shaping.
struct TrafficPolicy {
  TxJitterPolicy jitter;
  MacShaping mac;

  bool AnyLayerEnabled() const { return jitter.enabled || mac.AnyLayerEnabled(); }
};

}  // namespace diffusion

#endif  // SRC_CORE_TRAFFIC_POLICY_H_
