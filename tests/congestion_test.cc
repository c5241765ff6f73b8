// Tests for the TrafficPolicy shaping layers (SNIPPETS B1-B5): token-bucket
// math and ingress policing, queue drop policy, airtime budgets, expanding-
// ring interest backoff, transmit jitter, and the contract that disabled
// layers leave a run byte-identical to the unshaped protocol.

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
using testing_support::MakeLineChannel;
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

// ---- B4: queue drop policy ----

TEST(QueuePolicyTest, ControlEvictsQueuedRefresh) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(27, 0xab);

  RadioConfig config = FastRadio();
  config.mac.queue_limit = 4;
  config.mac.shaping.queue.priority_drop = true;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  // Fill the queue with refresh-class frames (the simulator never runs, so
  // nothing drains).
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kRefresh));
  }
  // Control outranks refresh: the incoming frame evicts a queued one.
  EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kControl));
  EXPECT_EQ(radio.mac_stats().priority_evictions, 1u);
  // Another refresh frame outranks nothing in the full queue: tail drop.
  EXPECT_FALSE(radio.SendMessage(2, payload, MacPriority::kRefresh));
  EXPECT_EQ(radio.mac_stats().priority_evictions, 1u);
  EXPECT_EQ(radio.mac_stats().drops_queue_full, 2u);  // eviction + tail drop
}

TEST(QueuePolicyTest, WatermarkShedsRefreshBeforeQueueFills) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(27, 0xab);

  RadioConfig config = FastRadio();
  config.mac.queue_limit = 4;
  config.mac.shaping.queue.high_watermark = 0.5;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kData));
  EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kData));
  // At the watermark (2 of 4): refresh yields, data still admitted.
  EXPECT_FALSE(radio.SendMessage(2, payload, MacPriority::kRefresh));
  EXPECT_TRUE(radio.SendMessage(2, payload, MacPriority::kData));
  EXPECT_EQ(radio.mac_stats().drops_queue_full, 1u);
}

// ---- B5: airtime budget ----

TEST(AirtimeBudgetTest, RejectsBeyondWindowAllowance) {
  Simulator sim(1);
  auto channel = MakeCliqueChannel(&sim, 2);
  const std::vector<uint8_t> payload(270, 0xab);  // ten fragments

  RadioConfig config = FastRadio();
  config.mac.shaping.airtime.enabled = true;
  config.mac.shaping.airtime.budget_fraction = 0.01;
  config.mac.shaping.airtime.window = 1 * kSecond;
  Radio radio(&sim, channel.get(), 1, config);
  Radio peer(&sim, channel.get(), 2, FastRadio());

  // 10 ms of allowance per window runs out within a bounded number of
  // ~3.5 ms messages; rejection must not inflate the rate-limit counter.
  int sent = 0;
  while (radio.SendMessage(2, payload) && sent < 100) {
    ++sent;
  }
  EXPECT_LT(sent, 100);
  EXPECT_EQ(radio.mac_stats().drops_airtime, 1u);
  EXPECT_EQ(radio.mac_stats().drops_rate_limited, 0u);

  // The budget is per window: the next window admits again.
  sim.At(1 * kSecond, [] {});
  sim.RunUntil(1 * kSecond);
  EXPECT_TRUE(radio.SendMessage(2, payload));
}

// ---- B2: expanding-ring interest scope + refresh backoff ----

TEST(InterestBackoffTest, RingExpandsThenRefreshBacksOff) {
  Simulator sim(1);
  MemoryTraceSink trace;
  sim.set_trace_sink(&trace);
  auto channel = MakeLineChannel(&sim, 3);

  DiffusionConfig dconfig;
  dconfig.interest_refresh = 2 * kSecond;
  dconfig.flood_ttl = 3;
  TrafficPolicy policy;
  policy.backoff.enabled = true;
  policy.backoff.initial_ttl = 1;
  policy.backoff.ttl_step = 1;
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 3; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id,
        NodeOptions{.diffusion = dconfig, .radio = FastRadio(), .traffic = policy}));
  }

  // No publisher anywhere: the ring opens 1 -> 2 -> 3 (= flood_ttl), then
  // the refresh period starts doubling.
  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(40 * kSecond);

  EXPECT_EQ(nodes[0]->stats().interest_scope_expansions, 2u);
  EXPECT_GE(nodes[0]->stats().refresh_backoffs, 2u);
  int scope_events = 0;
  int backoff_events = 0;
  for (const TraceEvent& event : trace.events()) {
    scope_events += event.kind == TraceEventKind::kInterestScopeChanged ? 1 : 0;
    backoff_events += event.kind == TraceEventKind::kRefreshBackoff ? 1 : 0;
  }
  EXPECT_EQ(scope_events, 2);
  EXPECT_GE(backoff_events, 2);
}

TEST(InterestBackoffTest, RefreshPeriodIsCappedAtMaxRefresh) {
  Simulator sim(1);
  MemoryTraceSink trace;
  sim.set_trace_sink(&trace);
  auto channel = MakeLineChannel(&sim, 2);

  DiffusionConfig dconfig;
  dconfig.interest_refresh = 2 * kSecond;
  dconfig.flood_ttl = 1;
  TrafficPolicy policy;
  policy.backoff.enabled = true;
  policy.backoff.initial_ttl = 1;
  policy.backoff.max_refresh = 8 * kSecond;
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id = 1; id <= 2; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id,
        NodeOptions{.diffusion = dconfig, .radio = FastRadio(), .traffic = policy}));
  }

  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(2 * kMinute);

  // 2 s doubles toward the 8 s ceiling and then holds: every backoff trace
  // event records the new period, which never exceeds max_refresh.
  int backoff_events = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind != TraceEventKind::kRefreshBackoff) {
      continue;
    }
    ++backoff_events;
    EXPECT_LE(event.value, 8 * kSecond);
  }
  EXPECT_GE(backoff_events, 2);
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
  disabled.jitter.data_window = 9 * kSecond;
  disabled.backoff.enabled = false;
  disabled.backoff.initial_ttl = 1;
  disabled.backoff.backoff_factor = 7.0;
  disabled.mac.data.enabled = false;
  disabled.mac.data.rate_bytes_per_s = 1.0;
  disabled.mac.data.burst_bytes = 1.0;
  disabled.mac.data.originated_only = true;
  disabled.mac.refresh.enabled = false;
  disabled.mac.refresh.rate_bytes_per_s = 1.0;
  disabled.mac.airtime.enabled = false;
  disabled.mac.airtime.budget_fraction = 0.0;
  ASSERT_FALSE(disabled.AnyLayerEnabled());

  MemoryTraceSink baseline_trace;
  MemoryTraceSink disabled_trace;
  CongestionRunParams params;
  params.end_at = 2 * kMinute;
  params.warmup = 30 * kSecond;
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

}  // namespace
}  // namespace diffusion
