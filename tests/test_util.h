// Shared helpers for the test suite.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "src/radio/channel.h"
#include "src/radio/fragmentation.h"
#include "src/radio/propagation.h"
#include "src/radio/radio.h"
#include "src/radio/wire_body.h"
#include "src/sim/simulator.h"
#include "src/util/arena.h"

namespace diffusion {
namespace testing_support {

// A channel whose nodes 1..count form a line: node i reaches i-1 and i+1
// only, with perfect delivery unless `delivery_probability` says otherwise.
inline std::unique_ptr<Channel> MakeLineChannel(Simulator* sim, size_t count,
                                                double delivery_probability = 1.0) {
  auto topology = std::make_unique<ExplicitTopology>();
  for (NodeId i = 1; i + 1 <= count; ++i) {
    LinkQuality quality;
    quality.delivery_probability = delivery_probability;
    topology->AddSymmetricLink(i, i + 1, quality);
  }
  return std::make_unique<Channel>(sim, std::move(topology));
}

// A channel where every node in 1..count hears every other (single cell).
inline std::unique_ptr<Channel> MakeCliqueChannel(Simulator* sim, size_t count,
                                                  double delivery_probability = 1.0) {
  auto topology = std::make_unique<ExplicitTopology>();
  for (NodeId a = 1; a <= count; ++a) {
    for (NodeId b = a + 1; b <= count; ++b) {
      LinkQuality quality;
      quality.delivery_probability = delivery_probability;
      topology->AddSymmetricLink(a, b, quality);
    }
  }
  return std::make_unique<Channel>(sim, std::move(topology));
}

// Radio configuration for protocol tests: fast enough that multi-minute
// protocol timelines simulate instantly, ideal otherwise.
inline RadioConfig FastRadio() {
  RadioConfig config;
  config.mac.bitrate_bps = 1e6;
  config.mac.slot = 100;                // 100 µs
  config.mac.interframe_spacing = 100;  // 100 µs
  config.mac.initial_jitter = 200;
  return config;
}

// SplitMessage over a copy of `bytes` in a ByteBody from `pool`, which must
// outlive the fragments.
inline std::vector<Fragment> SplitBytes(SlotPool* pool, NodeId src, NodeId dst,
                                        uint32_t message_seq, const std::vector<uint8_t>& bytes,
                                        size_t max_payload) {
  return SplitMessage(src, dst, message_seq, ByteBody::Make(pool, bytes), max_payload);
}

// The encoded bytes of `body`.
inline std::vector<uint8_t> BodyBytes(const WireBody& body) {
  std::vector<uint8_t> bytes;
  body.AppendBytes(&bytes);
  return bytes;
}

}  // namespace testing_support
}  // namespace diffusion

#endif  // TESTS_TEST_UTIL_H_
