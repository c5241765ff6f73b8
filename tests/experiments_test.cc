// Integration tests over the experiment runners: each pins the *qualitative*
// result the paper reports, on shortened windows so the suite stays fast.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/radio/channel.h"
#include "src/testbed/experiments.h"
#include "src/testbed/testbed_world.h"
#include "src/testbed/topology.h"
#include "src/trace/trace.h"

namespace diffusion {
namespace {

TEST(Fig8ExperimentTest, SingleSourceIdenticalWithAndWithoutSuppression) {
  Fig8Params params;
  params.sources = 1;
  params.duration = 5 * kMinute;
  params.seed = 7;
  params.strategy = AggregationStrategy::kSuppression;
  const Fig8Result with = RunFig8(params);
  params.strategy = AggregationStrategy::kNone;
  const Fig8Result without = RunFig8(params);
  // "Performance with one source is basically identical with and without
  // suppression" — identical here because the run is deterministic and the
  // filter has nothing to absorb.
  EXPECT_EQ(with.diffusion_bytes, without.diffusion_bytes);
  EXPECT_EQ(with.distinct_events, without.distinct_events);
}

TEST(Fig8ExperimentTest, SuppressionSavesTrafficAtFourSources) {
  Fig8Params params;
  params.sources = 4;
  params.duration = 10 * kMinute;
  params.seed = 7;
  params.strategy = AggregationStrategy::kSuppression;
  const Fig8Result with = RunFig8(params);
  params.strategy = AggregationStrategy::kNone;
  const Fig8Result without = RunFig8(params);
  EXPECT_GT(with.distinct_events, 50u);
  EXPECT_GT(with.suppressed, 0u);
  // The paper's headline: up to ~42% savings. Require at least 25% here.
  EXPECT_LT(with.bytes_per_event, without.bytes_per_event * 0.75)
      << with.bytes_per_event << " vs " << without.bytes_per_event;
}

TEST(Fig8ExperimentTest, TrafficGrowsWithSourcesWithoutSuppression) {
  Fig8Params params;
  params.duration = 10 * kMinute;
  params.seed = 11;
  params.strategy = AggregationStrategy::kNone;
  params.sources = 1;
  const double one = RunFig8(params).bytes_per_event;
  params.sources = 4;
  const double four = RunFig8(params).bytes_per_event;
  EXPECT_GT(four, one * 2.0);  // paper: 990 -> 3289 (3.3x)
}

TEST(Fig8ExperimentTest, CountingMergesEventsAndTradesLatency) {
  Fig8Params params;
  params.sources = 4;
  params.duration = 10 * kMinute;
  params.seed = 7;
  const Fig8Result suppression = RunFig8(params);
  params.strategy = AggregationStrategy::kCounting;
  const Fig8Result counting = RunFig8(params);
  // §3.3's counting filter merges concurrent detections and pays its hold
  // window in first-copy latency; suppression forwards the first copy at once.
  EXPECT_GT(counting.suppressed, 0u);
  EXPECT_GT(counting.distinct_events, 0u);
  EXPECT_GT(counting.mean_latency_s, suppression.mean_latency_s)
      << counting.mean_latency_s << " vs " << suppression.mean_latency_s;
}

TEST(Fig8ExperimentTest, DeliveryInOperationalRange) {
  Fig8Params params;
  params.sources = 4;
  params.duration = 10 * kMinute;
  params.seed = 13;
  const Fig8Result result = RunFig8(params);
  EXPECT_GT(result.delivery_rate, 0.5);
  EXPECT_LE(result.delivery_rate, 1.0);
}

// The paper's shape on the cells paper_claims' fig9 section reports
// (three 20-minute runs, seeds 2000-2002): one run is a single draw of the
// hidden-terminal losses, so the comparison is on the mean.
TEST(Fig9ExperimentTest, NestedBeatsFlatWithFourSensors) {
  Fig9Params params;
  params.lights = 4;
  params.duration = 20 * kMinute;
  double nested_delivered = 0.0;
  double flat_delivered = 0.0;
  uint64_t nested_bytes = 0;
  uint64_t flat_bytes = 0;
  for (uint64_t seed = 2000; seed <= 2002; ++seed) {
    params.seed = seed;
    params.mode = QueryMode::kNested;
    const Fig9Result nested = RunFig9(params);
    params.mode = QueryMode::kFlat;
    const Fig9Result flat = RunFig9(params);
    nested_delivered += nested.delivered_fraction;
    flat_delivered += flat.delivered_fraction;
    nested_bytes += nested.diffusion_bytes;
    flat_bytes += flat.diffusion_bytes;
  }
  EXPECT_GE(nested_delivered, flat_delivered);
  // "This experiment sharply contrasts the bandwidth requirements": the flat
  // query hauls light reports across the whole network.
  EXPECT_GT(flat_bytes, nested_bytes * 12 / 10);
}

TEST(Fig9ExperimentTest, DeliveryFallsAsSensorsAreAdded) {
  Fig9Params params;
  params.duration = 10 * kMinute;
  params.seed = 29;
  params.mode = QueryMode::kNested;
  params.lights = 1;
  const Fig9Result one = RunFig9(params);
  params.lights = 4;
  const Fig9Result four = RunFig9(params);
  EXPECT_GT(one.delivered_fraction, 0.6);
  EXPECT_LT(four.delivered_fraction, one.delivered_fraction + 0.01);
}

TEST(Fig9ExperimentTest, TriggeredVariantSendsTriggers) {
  Fig9Params params;
  params.lights = 2;
  params.duration = 5 * kMinute;
  params.seed = 31;
  params.mode = QueryMode::kFlatTriggered;
  const Fig9Result result = RunFig9(params);
  EXPECT_GT(result.triggers_sent, 0u);
}

TEST(ScaleExperimentTest, SuppressionHelpsMoreAtHigherDataShare) {
  ScaleParams params;
  params.nodes = 30;
  params.duration = 3 * kMinute;
  params.seed = 5;

  // 1:10-like configuration.
  params.event_interval = 6 * kSecond;
  params.exploratory_every = 10;
  params.suppression = true;
  const double low_with = RunScaleExperiment(params).bytes_per_event;
  params.suppression = false;
  const double low_without = RunScaleExperiment(params).bytes_per_event;

  // 1:100-like configuration.
  params.event_interval = 500 * kMillisecond;
  params.exploratory_every = 100;
  params.suppression = true;
  const double high_with = RunScaleExperiment(params).bytes_per_event;
  params.suppression = false;
  const double high_without = RunScaleExperiment(params).bytes_per_event;

  ASSERT_GT(low_with, 0.0);
  ASSERT_GT(high_with, 0.0);
  const double low_factor = low_without / low_with;
  const double high_factor = high_without / high_with;
  EXPECT_GT(low_factor, 1.0);
  EXPECT_GT(high_factor, 1.0);
  // The paper's argument: savings grow when data dominates exploratory
  // floods (1.7x at 1:10 vs 3-5x at 1:100).
  EXPECT_GT(high_factor, low_factor * 0.9);
}

TEST(ScaleExperimentTest, FewerNodesThanSourcesAndSinksRuns) {
  // The default 5 sources + 5 sinks do not fit in 6 nodes; the runner keeps
  // one node for the sinks instead of slicing past the layout.
  ScaleParams params;
  params.nodes = 6;
  params.field_size = 30.0;
  params.duration = 1 * kMinute;
  params.seed = 3;
  const ScaleResult result = RunScaleExperiment(params);
  EXPECT_GE(result.delivery_rate, 0.0);
  EXPECT_LE(result.delivery_rate, 1.0);
}

TEST(GeoExperimentTest, ScopingPrunesAndSavesTraffic) {
  GeoParams params;
  params.duration = 5 * kMinute;
  params.seed = 3;
  params.geo_scope = false;
  const GeoResult off = RunGeoExperiment(params);
  params.geo_scope = true;
  const GeoResult on = RunGeoExperiment(params);
  EXPECT_EQ(off.interests_pruned, 0u);
  EXPECT_GT(on.interests_pruned, 0u);
  EXPECT_LT(on.bytes_per_event, off.bytes_per_event);
  EXPECT_GT(on.delivery_rate, 0.4);
}

TEST(ExperimentDeterminismTest, SameSeedSameResult) {
  Fig8Params params;
  params.sources = 2;
  params.duration = 3 * kMinute;
  params.seed = 77;
  const Fig8Result a = RunFig8(params);
  const Fig8Result b = RunFig8(params);
  EXPECT_EQ(a.diffusion_bytes, b.diffusion_bytes);
  EXPECT_EQ(a.distinct_events, b.distinct_events);
  params.seed = 78;
  const Fig8Result c = RunFig8(params);
  EXPECT_NE(a.diffusion_bytes, c.diffusion_bytes);
}

// An endpoint no propagation model knows: never reached, never transmits.
class IdleEndpoint : public ChannelEndpoint {
 public:
  explicit IdleEndpoint(NodeId id) : id_(id) {}
  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return true; }
  bool IsTransmitting() const override { return false; }
  void OnFrameDelivered(const Fragment&, SimDuration) override {}

 private:
  NodeId id_;
};

struct Fig7Run {
  uint64_t fingerprint = 0;
  uint64_t trace_events = 0;
  size_t delivered = 0;
};

// Figure 8's world at four sources with duplicate suppression. With
// `churn_channel_tables`, 200 idle endpoints attach to the channel and
// detach again before anything runs: that reshapes the channel's id-keyed
// tables and draws no random number.
Fig7Run RunFig7World(uint64_t seed, bool churn_channel_tables) {
  const TestbedLayout layout = IsiTestbedLayout();
  FingerprintTraceSink trace;
  TestbedWorld world(seed, layout, MakePropagation(layout, 0.9),
                     NodeOptions{.diffusion = TestbedDiffusionConfig(),
                                 .radio = TestbedRadioConfig()},
                     &trace);
  if (churn_channel_tables) {
    std::vector<std::unique_ptr<IdleEndpoint>> idle;
    for (NodeId id = 5000; id < 5200; ++id) {
      idle.push_back(std::make_unique<IdleEndpoint>(id));
      world.channel().Attach(idle.back().get());
    }
    for (NodeId id = 5000; id < 5200; ++id) {
      world.channel().Detach(id);
    }
  }
  const SurveillanceConfig sconfig;
  world.SuppressDuplicates(sconfig);
  SurveillanceSink sink(world.node(kIsiSinkNode), sconfig);
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (NodeId id : kIsiSourceNodes) {
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }
  sink.Start();
  for (auto& source : sources) {
    world.sim().At(kSourceStart, [&source] { source->Start(); });
  }
  world.sim().RunUntil(5 * kMinute);
  return Fig7Run{trace.fingerprint(), trace.count(), sink.distinct_events()};
}

// Output is a function of (seed, config) alone: receivers resolve in
// ascending node id order, not in the order of any hash table.
TEST(ExperimentDeterminismTest, OutputDoesNotDependOnChannelTableLayout) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Fig7Run plain = RunFig7World(seed, false);
    const Fig7Run churned = RunFig7World(seed, true);
    EXPECT_GT(plain.delivered, 0u) << "seed " << seed;
    EXPECT_EQ(plain.fingerprint, churned.fingerprint) << "seed " << seed;
    EXPECT_EQ(plain.trace_events, churned.trace_events) << "seed " << seed;
    EXPECT_EQ(plain.delivered, churned.delivered) << "seed " << seed;
  }
}

// Golden pins: one short run of each runner that no bench gate re-runs,
// recorded with receivers resolved in ascending node id order. Any change to
// construction order (and so to the RNG fork sequence), to reception order
// or to the result arithmetic moves these numbers.
TEST(ExperimentGoldenTest, Fig9ShortRunIsPinned) {
  FingerprintTraceSink trace;
  Fig9Params params;
  params.lights = 4;
  params.duration = 4 * kMinute;
  params.seed = 41;
  params.trace_sink = &trace;
  const Fig9Result result = RunFig9(params);
  EXPECT_DOUBLE_EQ(result.delivered_fraction, 0.75);
  EXPECT_EQ(result.possible_events, 16u);
  EXPECT_EQ(result.delivered_events, 12u);
  EXPECT_EQ(result.diffusion_bytes, 158775u);
  EXPECT_EQ(result.triggers_sent, 0u);
  EXPECT_EQ(trace.fingerprint(), 5043996926682249u);
  EXPECT_EQ(trace.count(), 40415u);
}

TEST(ExperimentGoldenTest, ScaleShortRunIsPinned) {
  FingerprintTraceSink trace;
  ScaleParams params;
  params.nodes = 30;
  params.duration = 1 * kMinute;
  params.seed = 43;
  params.trace_sink = &trace;
  const ScaleResult result = RunScaleExperiment(params);
  EXPECT_DOUBLE_EQ(result.bytes_per_event, 1601.8666666666666);
  EXPECT_EQ(result.distinct_events, 120u);
  EXPECT_DOUBLE_EQ(result.delivery_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.energy_per_event, 22.591223083333333);
  EXPECT_DOUBLE_EQ(result.comm_energy_per_event, 0.18244616666666669);
  EXPECT_EQ(trace.fingerprint(), 5470126600787164u);
  EXPECT_EQ(trace.count(), 25186u);
}

TEST(ExperimentGoldenTest, GeoShortRunIsPinned) {
  GeoParams params;
  params.geo_scope = true;
  params.duration = 2 * kMinute;
  params.seed = 47;
  const GeoResult result = RunGeoExperiment(params);
  EXPECT_DOUBLE_EQ(result.bytes_per_event, 2380.4705882352941);
  EXPECT_DOUBLE_EQ(result.delivery_rate, 0.85);
  EXPECT_EQ(result.interests_pruned, 23u);
}

}  // namespace
}  // namespace diffusion
