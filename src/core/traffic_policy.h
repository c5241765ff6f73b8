// TrafficPolicy: the network's optional self-protection layers.
//
// The paper's MAC is deliberately primitive — carrier sense only, no backoff
// beyond the contention window, no rate limiting, no drop policy — so one
// flooding node or a modest offered-load ramp can collapse delivery
// network-wide. TrafficPolicy bundles five deterministic shaping layers
// (SNIPPETS B1–B5), every one off by default:
//
//   jitter      B1  per-message-type randomized transmit jitter
//   backoff     B2  exponential interest-refresh backoff with an
//                   expanding-ring flood scope (TTL 2 -> 4 -> 6 ...)
//   rate limit  B3  per-node, per-priority-class token buckets (MacShaping)
//   drop policy B4  congestion-aware queue admission, control > data >
//                   refresh (MacShaping)
//   airtime     B5  per-node time-on-air budgets per window (MacShaping)
//
// With every layer disabled a run is byte-identical to the unshaped
// protocol: no extra RNG draws, no extra events, no trace changes. All
// randomness flows from the node's seeded Rng (diffusion-lint DL002).
//
// The MAC-level layers (B3-B5) are configured here but enforced inside
// CsmaMac; DiffusionNode copies them into the RadioConfig it hands the radio
// (see NodeOptions in src/core/node_options.h).

#ifndef SRC_CORE_TRAFFIC_POLICY_H_
#define SRC_CORE_TRAFFIC_POLICY_H_

#include "src/radio/mac.h"
#include "src/util/time.h"

namespace diffusion {

// B1: randomized delay before originated transmissions, by message type.
// Forwarded floods already carry DiffusionConfig::forward_delay_jitter; this
// layer desynchronizes the *sources* of traffic — originated interests and
// data, and hop-by-hop reinforcements — which otherwise phase-lock when many
// nodes react to the same event.
struct TxJitterPolicy {
  bool enabled = false;
  SimDuration control_window = 20 * kMillisecond;   // interests, reinforcements
  SimDuration data_window = 50 * kMillisecond;      // regular data
  SimDuration refresh_window = 100 * kMillisecond;  // exploratory data
};

// B2: retries back off, discovery expands outward. A subscription's first
// interest flood carries `initial_ttl` hops; every refresh that elapses with
// no matching data arriving expands the ring by `ttl_step` (up to the
// variant's flood_ttl), and once the ring is fully open the refresh period
// itself backs off exponentially (x `backoff_factor`, capped at
// `max_refresh`). The first delivered data message resets the period to
// DiffusionConfig::interest_refresh; the ring stays at whatever scope
// reached the source.
struct InterestBackoffPolicy {
  bool enabled = false;
  uint8_t initial_ttl = 2;
  uint8_t ttl_step = 2;
  double backoff_factor = 2.0;
  SimDuration max_refresh = 8 * kMinute;
};

// The unified shaping configuration: node-level layers (jitter, backoff)
// plus the MAC-level ones (queue policy, airtime budget, per-class token
// buckets), which the node hands its radio unchanged as MacConfig::shaping.
struct TrafficPolicy {
  TxJitterPolicy jitter;
  InterestBackoffPolicy backoff;
  MacShaping mac;

  bool AnyLayerEnabled() const {
    return jitter.enabled || backoff.enabled || mac.AnyLayerEnabled();
  }
};

}  // namespace diffusion

#endif  // SRC_CORE_TRAFFIC_POLICY_H_
