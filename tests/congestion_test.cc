// Tests for the TrafficPolicy shaping layers (SNIPPETS B1 and B3): token-
// bucket math and ingress policing, queue admission (tail drop, control never
// throttled), transmit jitter, the contract that disabled layers leave a run
// byte-identical to the unshaped protocol, and golden pins of shaped runs.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/node.h"
#include "src/core/node_options.h"
#include "src/core/traffic_policy.h"
#include "src/naming/keys.h"
#include "src/radio/fragmentation.h"
#include "src/radio/mac.h"
#include "src/radio/radio.h"
#include "src/sim/simulator.h"
#include "src/testbed/congestion.h"
#include "src/trace/trace.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::SplitBytes;

AttributeVector Query() {
  return {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "light")};
}

AttributeVector Publication() {
  return {Attribute::String(kKeyType, AttrOp::kIs, "light")};
}

// On-air bytes of a single `payload_bytes`-byte message (what the token
// buckets charge): fragment wire sizes summed over the split.
size_t MessageWireBytes(size_t payload_bytes, size_t max_payload) {
  Simulator sim;
  const std::vector<uint8_t> payload(payload_bytes, 0xab);
  size_t wire = 0;
  for (const Fragment& fragment : SplitBytes(&sim.slot_pool(), 1, 2, 1, payload, max_payload)) {
    wire += fragment.WireSize();
  }
  return wire;
}

// ---- B3: token buckets ----

TEST(TokenBucketTest, ChargesWireBytesAndRefillsFromSimTime) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(27, 0xab);  // one fragment
  const double wire = static_cast<double>(MessageWireBytes(payload.size(), 27));

  RadioConfig config = FastRadio();
  config.mac.shaping.data.enabled = true;
  config.mac.shaping.data.burst_bytes = 2.5 * wire;
  config.mac.shaping.data.rate_bytes_per_s = wire;  // one message per second
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  // The bucket primes full at first use: 2.5 messages of burst admit two.
  EXPECT_TRUE(radio.SendMessage(2, payload));
  EXPECT_TRUE(radio.SendMessage(2, payload));
  EXPECT_FALSE(radio.SendMessage(2, payload));
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 1u);

  // One second of refill (0.5 + 1.0 message-equivalents) admits exactly one.
  sim.At(1 * kSecond, [] {});
  sim.RunUntil(1 * kSecond);
  EXPECT_TRUE(radio.SendMessage(2, payload));
  EXPECT_FALSE(radio.SendMessage(2, payload));
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 2u);
}

TEST(TokenBucketTest, MessageLargerThanBurstNeverAdmits) {
  // Admission is message-atomic: a message whose summed wire size exceeds
  // the bucket capacity is rejected even from a full bucket (a partial
  // fragment set could never reassemble). Configs must keep burst_bytes at
  // or above the largest message class they shape.
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(108, 0xab);  // four fragments

  RadioConfig config = FastRadio();
  config.mac.shaping.data.enabled = true;
  config.mac.shaping.data.burst_bytes =
      static_cast<double>(MessageWireBytes(payload.size(), 27)) - 1.0;
  config.mac.shaping.data.rate_bytes_per_s = 1e6;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  EXPECT_FALSE(radio.SendMessage(2, payload));
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 1u);
  // The whole message was refused up front; no fragment reached the queue.
  EXPECT_EQ(radio.stats().fragments_sent, 0u);
}

TEST(TokenBucketTest, OriginatedOnlyBucketExemptsTransit) {
  // Ingress policing: an originated_only bucket meters what this node
  // injects and waves forwarded traffic through, so a multi-hop flow is
  // taxed once (at its origin), not once per relay.
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(27, 0xab);
  const double wire = static_cast<double>(MessageWireBytes(payload.size(), 27));

  RadioConfig config = FastRadio();
  config.mac.shaping.data.enabled = true;
  config.mac.shaping.data.burst_bytes = wire;
  config.mac.shaping.data.rate_bytes_per_s = 1.0;
  config.mac.shaping.data.originated_only = true;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kData, /*originated=*/true));
  EXPECT_FALSE(radio.SendMessage(2, payload, MacPriority::kData, /*originated=*/true));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kData, /*originated=*/false));
  }
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 1u);
}

// ---- Queue admission ----

TEST(QueueAdmissionTest, FullQueueTailDropsEveryClass) {
  // A full queue refuses the arriving frame whatever its class, control
  // included, and counts one queue-full drop per refused frame; nothing
  // already queued is displaced.
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(27, 0xab);  // one fragment

  RadioConfig config = FastRadio();
  config.mac.queue_limit = 4;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  // The simulator never runs, so nothing drains.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kData));
  }
  uint64_t drops = 0;
  for (MacPriority priority : {MacPriority::kControl, MacPriority::kData, MacPriority::kRefresh}) {
    EXPECT_FALSE(radio.SendMessage(2, payload, priority));
    EXPECT_EQ(radio.mac_stats().drops_queue_full, ++drops);
  }
  EXPECT_EQ(radio.stats().fragments_sent, 4u);
  EXPECT_EQ(radio.stats().fragments_dropped, 3u);
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 0u);
}

TEST(QueueAdmissionTest, ControlIsNeverRateLimited) {
  // Only the data and refresh classes have buckets: with both all but empty,
  // interests and reinforcements still go out.
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(27, 0xab);

  RadioConfig config = FastRadio();
  config.mac.shaping.data.enabled = true;
  config.mac.shaping.data.burst_bytes = 1.0;
  config.mac.shaping.data.rate_bytes_per_s = 1.0;
  config.mac.shaping.refresh.enabled = true;
  config.mac.shaping.refresh.burst_bytes = 1.0;
  config.mac.shaping.refresh.rate_bytes_per_s = 1.0;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  EXPECT_FALSE(radio.SendMessage(2, payload, MacPriority::kData));
  EXPECT_FALSE(radio.SendMessage(2, payload, MacPriority::kRefresh));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kControl));
  }
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 2u);
  EXPECT_EQ(radio.stats().fragments_sent, 20u);
}

// ---- B1: transmit jitter ----

TEST(TxJitterTest, JitteredSourceStillDelivers) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);

  TrafficPolicy policy;
  policy.jitter.enabled = true;
  DiffusionNode sink(&sim, channel.get(), 1,
                     NodeOptions{.radio = FastRadio(), .traffic = policy});
  DiffusionNode source(&sim, channel.get(), 2,
                       NodeOptions{.radio = FastRadio(), .traffic = policy});

  int delivered = 0;
  (void)sink.Subscribe(Query(), [&delivered](const AttributeVector&) { ++delivered; });

  PublicationHandle handle = source.Publish(Publication());
  for (int i = 0; i < 5; ++i) {
    sim.At((2 + i) * kSecond, [&source, handle] {
      EXPECT_EQ(source.Send(handle, {}), ApiResult::kOk);
    });
  }
  sim.RunUntil(30 * kSecond);

  EXPECT_GT(delivered, 0);
  EXPECT_GT(source.stats().transmits_jittered, 0u);
}

// ---- Disabled-policy equivalence ----

TEST(TrafficPolicyEquivalenceTest, DisabledLayersAreByteIdenticalToSeed) {
  // The off switch is the contract: a policy whose layers are all disabled
  // must not perturb the run at all — no extra RNG draws, no trace changes —
  // no matter what values sit behind the disabled flags.
  TrafficPolicy disabled;
  disabled.jitter.enabled = false;
  disabled.mac.data.enabled = false;
  disabled.mac.data.rate_bytes_per_s = 1.0;
  disabled.mac.data.burst_bytes = 1.0;
  disabled.mac.data.originated_only = true;
  disabled.mac.refresh.enabled = false;
  disabled.mac.refresh.rate_bytes_per_s = 1.0;
  ASSERT_FALSE(disabled.AnyLayerEnabled());

  MemoryTraceSink baseline_trace;
  MemoryTraceSink disabled_trace;
  CongestionRunParams params;
  params.end_at = 2 * kMinute;
  params.trace_sink = &baseline_trace;
  const CongestionRunResult baseline = RunCongestionScenario(params);
  params.policy = disabled;
  params.trace_sink = &disabled_trace;
  const CongestionRunResult with_disabled = RunCongestionScenario(params);

  EXPECT_EQ(baseline.events_delivered, with_disabled.events_delivered);
  EXPECT_EQ(baseline.bytes_sent, with_disabled.bytes_sent);
  ASSERT_EQ(baseline_trace.events().size(), disabled_trace.events().size());
  for (size_t i = 0; i < baseline_trace.events().size(); ++i) {
    ASSERT_EQ(baseline_trace.events()[i], disabled_trace.events()[i]) << "event " << i;
  }
}

// ---- Golden pins: shaped runs ----

// One short shaped run at high offered load and one against the flooder. No
// bench gate traces a shaped run, so these pins are what holds the shaping
// layers' behavior (B1 jitter draws, B3 throttles) fixed.
TEST(CongestionGoldenTest, ShapedLoadRunIsPinned) {
  FingerprintTraceSink trace;
  CongestionRunParams params;
  params.sources = 5;
  params.event_interval = 750 * kMillisecond;
  params.policy = ReferenceShapingPolicy();
  params.end_at = 4 * kMinute;
  params.trace_sink = &trace;
  const CongestionRunResult result = RunCongestionScenario(params);
  EXPECT_EQ(result.events_delivered, 86u);
  EXPECT_EQ(result.bytes_sent, 324512.0);
  EXPECT_EQ(result.mac_drops_rate_limited, 1162u);
  EXPECT_EQ(trace.fingerprint(), 8190362410333844u);
  EXPECT_EQ(trace.count(), 37774u);
}

TEST(CongestionGoldenTest, ShapedFlooderRunIsPinned) {
  FingerprintTraceSink trace;
  CongestionRunParams params;
  params.sources = 3;
  params.flooder = true;
  params.policy = ReferenceShapingPolicy();
  params.end_at = 4 * kMinute;
  params.trace_sink = &trace;
  const CongestionRunResult result = RunCongestionScenario(params);
  EXPECT_EQ(result.events_delivered, 19u);
  EXPECT_EQ(result.bytes_sent, 237980.0);
  EXPECT_EQ(result.mac_drops_rate_limited, 946u);
  EXPECT_EQ(trace.fingerprint(), 3832821811805202u);
  EXPECT_EQ(trace.count(), 30065u);
}

}  // namespace
}  // namespace diffusion
