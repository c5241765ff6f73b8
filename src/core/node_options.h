// NodeOptions: the one options struct a DiffusionNode is built from.
//
// The seed constructor grew positional parameters per subsystem
// (DiffusionConfig, RadioConfig, ...); NodeOptions collapses them into one
// nested, designated-initializer-friendly aggregate:
//
//   DiffusionNode node(&sim, &channel, id,
//                      NodeOptions{.diffusion = {.flood_ttl = 8},
//                                  .radio = TestbedRadioConfig(),
//                                  .traffic = {.jitter = {.enabled = true}}});
//
// Every field defaults to the paper-faithful configuration, so
// `NodeOptions{}` is exactly the seed behavior.

#ifndef SRC_CORE_NODE_OPTIONS_H_
#define SRC_CORE_NODE_OPTIONS_H_

#include "src/core/config.h"
#include "src/core/traffic_policy.h"
#include "src/radio/radio.h"

namespace diffusion {

struct NodeOptions {
  DiffusionConfig diffusion{};
  RadioConfig radio{};
  TrafficPolicy traffic{};

  // The RadioConfig the node actually hands its radio: `radio` with the
  // MAC-level traffic layer (the token buckets) as MacConfig::shaping.
  RadioConfig EffectiveRadio() const {
    RadioConfig effective = radio;
    effective.mac.shaping = traffic.mac;
    return effective;
  }
};

}  // namespace diffusion

#endif  // SRC_CORE_NODE_OPTIONS_H_
