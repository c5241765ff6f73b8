// Diffusion protocol parameters.
//
// Defaults reproduce the testbed configuration of §6.1: interests are
// re-flooded every 60 s, one in ten data messages is exploratory, and floods
// carry a 16-hop budget.

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/util/time.h"

namespace diffusion {

// Protocol variant (§7: "more work is needed to understand how diffusion's
// parameters map to different needs").
enum class DiffusionVariant {
  // The paper's protocol: interests flood, exploratory data floods along
  // gradients, sinks reinforce the lowest-latency path, regular data follows
  // reinforced gradients.
  kTwoPhasePull,
  // The follow-on optimization: no exploratory data and no reinforcement.
  // Each node remembers which neighbor delivered the first copy of the most
  // recent interest flood (its lowest-latency direction toward the sink) and
  // forwards all data to that preferred gradient only.
  kOnePhasePull,
};

// How often a sink re-floods its interests ("interest messages sent every
// 60s and flooded from each node", §6.1).
inline constexpr SimDuration kInterestRefresh = 60 * kSecond;

// Gradients expire if not refreshed; tolerates two lost refreshes.
inline constexpr SimDuration kGradientLifetime = 150 * kSecond;

// Duplicate/loop-suppression cache capacity (packet ids).
inline constexpr size_t kDataCacheSize = 4096;

// Refresh timers are jittered by ±(fraction/2)·period. Unjittered periodic
// soft-state timers phase-lock across nodes: two sinks' refresh floods then
// meet at the same relay on every cycle and half-duplex/collision losses
// repeat deterministically (cf. the scalable-timers work the paper cites
// [31]).
inline constexpr double kRefreshJitterFraction = 0.2;

struct DiffusionConfig {
  DiffusionVariant variant = DiffusionVariant::kTwoPhasePull;

  // Every Nth data message from a source is exploratory ("1 out of every 10
  // data messages", §6.1). The first message of a publication is always
  // exploratory so paths get established.
  int exploratory_every = 10;

  // Hop budget for flooded interests and exploratory data.
  uint8_t flood_ttl = 16;

  // How long a reinforced gradient stays reinforced without re-reinforcement.
  // Exploratory rounds re-reinforce winning paths; a path whose upstream died
  // decays after this. Should exceed the exploratory period.
  SimDuration reinforcement_lifetime = 120 * kSecond;

  // A sink negatively reinforces a previously preferred neighbor when it has
  // not delivered a first copy of exploratory data for this long.
  SimDuration negative_reinforcement_after = 180 * kSecond;

  // Forwarded messages are re-sent after Uniform(0, jitter). Two forwarders
  // of the same flood are often hidden terminals sharing a downstream
  // neighbor (they both heard the same upstream transmission but not each
  // other); without desynchronization their re-broadcasts collide at that
  // neighbor on every single flood.
  SimDuration forward_delay_jitter = 100 * kMillisecond;
};

}  // namespace diffusion

#endif  // SRC_CORE_CONFIG_H_
