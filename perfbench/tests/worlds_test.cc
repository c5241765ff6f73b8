// Composition equivalence: the benchmark's worlds reproduce RunFig8 and
// ShardedWorld exactly, whatever the step size, worker count or tracing.

#include <vector>

#include "cc/worlds.h"
#include "gtest/gtest.h"
#include "src/testbed/sharded_world.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using diffusion::kMillisecond;
using diffusion::kMinute;
using diffusion::kSecond;

constexpr uint64_t kSeed = 3;

struct FieldRun {
  SimOutcome outcome;
  SimCounts counts;
  uint64_t fingerprint = 0;
  uint64_t trace_events = 0;
};

template <typename World>
void StepAll(World& world, diffusion::SimDuration step) {
  for (diffusion::SimTime end : world.StepEnds(step)) {
    world.Step(end);
  }
}

void ExpectSameFig8(const diffusion::Fig8Result& a, const diffusion::Fig8Result& b) {
  EXPECT_EQ(a.bytes_per_event, b.bytes_per_event);
  EXPECT_EQ(a.distinct_events, b.distinct_events);
  EXPECT_EQ(a.possible_events, b.possible_events);
  EXPECT_EQ(a.delivery_rate, b.delivery_rate);
  EXPECT_EQ(a.diffusion_bytes, b.diffusion_bytes);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.energy_per_event, b.energy_per_event);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Testbed14World, ReproducesRunFig8) {
  diffusion::Fig8Params fig8;
  fig8.seed = kSeed;
  fig8.duration = 10 * kMinute;
  diffusion::FingerprintTraceSink reference_trace;
  fig8.trace_sink = &reference_trace;
  const diffusion::Fig8Result reference = diffusion::RunFig8(fig8);
  ASSERT_GT(reference.distinct_events, 0u);

  for (diffusion::SimDuration step : {60 * kSecond, 7 * kSecond}) {
    for (bool count_reaches : {false, true}) {
      diffusion::FingerprintTraceSink trace;
      Testbed14Params params;
      params.seed = kSeed;
      params.duration = fig8.duration;
      params.count_reaches = count_reaches;
      params.trace_sink = &trace;
      Testbed14World world(params);
      StepAll(world, step);
      ExpectSameFig8(world.Fig8(), reference);
      EXPECT_EQ(trace.fingerprint(), reference_trace.fingerprint());
      EXPECT_EQ(trace.count(), reference_trace.count());
      EXPECT_EQ(world.Reach().reaches > 0, count_reaches);
    }
  }
}

TEST(Testbed14World, TracedRunKeepsCounts) {
  Testbed14Params params;
  params.seed = kSeed;
  params.duration = 5 * kMinute;
  Testbed14World plain(params);
  StepAll(plain, 60 * kSecond);
  params.count_reaches = true;
  Testbed14World counted(params);
  StepAll(counted, 60 * kSecond);
  EXPECT_EQ(plain.Counts(), counted.Counts());
  EXPECT_EQ(plain.Outcome(), counted.Outcome());
  EXPECT_GT(counted.Reach().reaches, plain.Counts().transmissions);
}

constexpr int kSide = 100;
constexpr diffusion::SimDuration kFieldHorizon = 4 * kSecond;

FieldRun RunField(unsigned threads, diffusion::SimDuration step, bool count_reaches) {
  diffusion::FingerprintTraceSink trace;
  Field10kParams params;
  params.seed = kSeed;
  params.side = kSide;
  params.threads = threads;
  params.horizon = kFieldHorizon;
  params.count_reaches = count_reaches;
  params.trace_sink = &trace;
  Field10kWorld world(params);
  StepAll(world, step);
  return FieldRun{world.Outcome(), world.Counts(), trace.fingerprint(), trace.count()};
}

TEST(Field10kWorld, ReproducesShardedWorld) {
  diffusion::ShardedWorldParams params;
  params.regions = 16;
  params.threads = 1;
  params.seed = kSeed;
  params.radio = diffusion::SimulationRadioConfig();
  diffusion::ShardedWorld world(
      diffusion::GridLayout(kSide, kSide, kFieldSpacing, kFieldRange), params);
  diffusion::FingerprintTraceSink trace;
  world.set_merged_trace_sink(&trace);
  SurveillanceApps apps;
  AttachFieldApps(world, kSide, &apps);
  const uint64_t events = world.RunUntil(kFieldHorizon);
  uint64_t bytes = 0;
  for (const auto& [id, node] : world.nodes()) {
    bytes += node->stats().bytes_sent;
  }
  const SimOutcome reference = FieldOutcome(apps, bytes);
  ASSERT_GT(reference.delivered, 0u);

  const FieldRun run = RunField(1, 100 * kMillisecond, false);
  EXPECT_EQ(run.fingerprint, trace.fingerprint());
  EXPECT_EQ(run.trace_events, trace.count());
  EXPECT_EQ(run.outcome, reference);
  EXPECT_EQ(run.counts.events, events);
  EXPECT_EQ(run.counts.windows, world.engine().windows_run());
  EXPECT_EQ(run.counts.transmissions, world.TotalChannelStats().transmissions);
  EXPECT_EQ(run.counts.border_frames, world.bridge().frames_handed_off());
  EXPECT_EQ(run.counts.deliveries_clamped, world.bridge().deliveries_clamped());
}

TEST(Field10kWorld, SameResultAtEveryWorkerCountStepAndTrace) {
  const FieldRun reference = RunField(1, 100 * kMillisecond, false);
  const FieldRun runs[] = {RunField(2, 100 * kMillisecond, false),
                           RunField(2, 1 * kMillisecond, true)};
  for (const FieldRun& run : runs) {
    EXPECT_EQ(run.fingerprint, reference.fingerprint);
    EXPECT_EQ(run.trace_events, reference.trace_events);
    EXPECT_EQ(run.outcome, reference.outcome);
    EXPECT_EQ(run.counts, reference.counts);
  }
}

}  // namespace
}  // namespace perfbench
