// Tests for the experiment applications: surveillance aggregation and
// nested queries.

#include <gtest/gtest.h>

#include "src/apps/app_keys.h"
#include "src/apps/app_util.h"
#include "src/apps/nested_query.h"
#include "src/apps/surveillance.h"
#include "src/core/message.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::MakeLineChannel;

TEST(AppUtilTest, PadsMessagesToTargetSize) {
  AttributeVector attrs = {
      Attribute::String(kKeyType, AttrOp::kIs, "surveillance"),
      ClassIs(kClassData),
      Attribute::Int32(kKeySequence, AttrOp::kIs, 7),
  };
  PadMessageAttrs(&attrs, 112);
  Message message;
  message.attrs = attrs;
  EXPECT_EQ(message.WireSize(), 112u);
}

TEST(AppUtilTest, PaddingNoOpWhenAlreadyLarge) {
  AttributeVector attrs = {
      Attribute::Blob(kKeyPad, AttrOp::kIs, std::vector<uint8_t>(200, 1)),
  };
  const size_t before = attrs.size();
  PadMessageAttrs(&attrs, 112);
  EXPECT_EQ(attrs.size(), before);
}

TEST(AppUtilTest, GetInt32ActualOr) {
  AttributeVector attrs = {Attribute::Int32(kKeySequence, AttrOp::kIs, 5)};
  EXPECT_EQ(GetInt32ActualOr(attrs, kKeySequence, -1), 5);
  EXPECT_EQ(GetInt32ActualOr(attrs, kKeySourceId, -1), -1);
}

TEST(SurveillanceTest, EventsReachSinkWithSynchronizedSequences) {
  Simulator sim(21);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode sink_node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode src_a(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode src_b(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  SurveillanceConfig config;
  SurveillanceSink sink(&sink_node, config);
  SurveillanceSource source_a(&src_a, config, 1);
  SurveillanceSource source_b(&src_b, config, 2);
  sink.Start();
  sim.RunUntil(2 * kSecond);
  source_a.Start();
  source_b.Start();
  sim.RunUntil(2 * kSecond + 60 * kSecond);

  // 10 events per source in 60 s at one per 6 s; both sources share
  // sequence numbers, so distinct events ≈ 10-11.
  EXPECT_GE(sink.distinct_events(), 9u);
  EXPECT_LE(sink.distinct_events(), 12u);
  // Without suppression both copies arrive.
  EXPECT_GT(sink.total_received(), sink.distinct_events());
  EXPECT_GE(source_a.events_generated(), 10u);
}

TEST(SurveillanceTest, SuppressionReducesDeliveredDuplicates) {
  Simulator sim(22);
  auto channel = MakeCliqueChannel(&sim, 3);
  DiffusionNode sink_node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode src_a(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode src_b(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  SurveillanceConfig config;
  DuplicateSuppressionFilter f1(&sink_node, SurveillanceDataFilterAttrs(config), 10);
  DuplicateSuppressionFilter f2(&src_a, SurveillanceDataFilterAttrs(config), 10);
  DuplicateSuppressionFilter f3(&src_b, SurveillanceDataFilterAttrs(config), 10);

  SurveillanceSink sink(&sink_node, config);
  SurveillanceSource source_a(&src_a, config, 1);
  SurveillanceSource source_b(&src_b, config, 2);
  sink.Start();
  sim.RunUntil(2 * kSecond);
  source_a.Start();
  source_b.Start();
  sim.RunUntil(2 * kSecond + 60 * kSecond);

  EXPECT_GE(sink.distinct_events(), 9u);
  // Suppression: at most one delivery per event.
  EXPECT_EQ(sink.total_received(), sink.distinct_events());
  EXPECT_GT(f1.suppressed() + f2.suppressed() + f3.suppressed(), 0u);
}

TEST(SurveillanceTest, MessagesAreTargetSized) {
  Simulator sim(23);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode sink_node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode src(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  SurveillanceConfig config;
  SurveillanceSink sink(&sink_node, config);
  SurveillanceSource source(&src, config, 1);
  sink.Start();
  sim.RunUntil(2 * kSecond);
  const uint64_t bytes_before = src.stats().bytes_sent;
  const uint64_t msgs_before = src.stats().messages_sent;
  source.Start();
  sim.RunUntil(3 * kSecond);
  const uint64_t sent = src.stats().messages_sent - msgs_before;
  ASSERT_GE(sent, 1u);
  const double avg = static_cast<double>(src.stats().bytes_sent - bytes_before) /
                     static_cast<double>(sent);
  EXPECT_NEAR(avg, 112.0, 2.0);
}

// ---- Nested queries (line: user=1, audio=2, light=3) ----

class NestedQueryTest : public ::testing::Test {
 protected:
  NestedQueryTest() : sim_(31), channel_(MakeLineChannel(&sim_, 3)) {
    DiffusionConfig config;
    config.exploratory_every = 3;  // sparse publications need frequent
                                   // exploratory rounds to hold their paths
    user_node_ = std::make_unique<DiffusionNode>(
        &sim_, channel_.get(), 1, NodeOptions{.diffusion = config, .radio = FastRadio()});
    audio_node_ = std::make_unique<DiffusionNode>(
        &sim_, channel_.get(), 2, NodeOptions{.diffusion = config, .radio = FastRadio()});
    light_node_ = std::make_unique<DiffusionNode>(
        &sim_, channel_.get(), 3, NodeOptions{.diffusion = config, .radio = FastRadio()});
  }

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<DiffusionNode> user_node_;
  std::unique_ptr<DiffusionNode> audio_node_;
  std::unique_ptr<DiffusionNode> light_node_;
};

TEST_F(NestedQueryTest, NestedModeDeliversAudioOnLightChanges) {
  NestedQueryConfig config;
  config.toggle_period = 30 * kSecond;
  QueryUser user(user_node_.get(), config, QueryMode::kNested);
  AudioSensor audio(audio_node_.get(), config, QueryMode::kNested);
  LightSensor light(light_node_.get(), config, /*light_id=*/3);

  audio.Start();
  user.Start();
  light.Start();
  sim_.RunUntil(2 * kMinute);

  EXPECT_TRUE(audio.lights_tasked());
  // 4 toggle epochs in 2 minutes; allow setup slack on the first.
  EXPECT_GE(audio.audio_events_generated(), 3u);
  EXPECT_GE(user.delivered_events(), 3u);
  EXPECT_EQ(user.triggers_sent(), 0u);  // nested mode never triggers
}

TEST_F(NestedQueryTest, FlatModeRequiresBothStreams) {
  NestedQueryConfig config;
  config.toggle_period = 30 * kSecond;
  QueryUser user(user_node_.get(), config, QueryMode::kFlat);
  AudioSensor audio(audio_node_.get(), config, QueryMode::kFlat, {3});
  LightSensor light(light_node_.get(), config, /*light_id=*/3);

  audio.Start();
  user.Start();
  light.Start();
  sim_.RunUntil(3 * kMinute);

  EXPECT_FALSE(audio.lights_tasked());  // flat mode: audio never sub-tasks
  EXPECT_EQ(user.triggers_sent(), 0u);
  EXPECT_GE(audio.audio_events_generated(), 4u);
  // On a loss-free line both streams arrive: all epochs after setup count.
  EXPECT_GE(user.delivered_events(), 4u);
}

TEST_F(NestedQueryTest, FlatTriggeredModeDeliversViaTriggers) {
  NestedQueryConfig config;
  config.toggle_period = 30 * kSecond;
  QueryUser user(user_node_.get(), config, QueryMode::kFlatTriggered);
  AudioSensor audio(audio_node_.get(), config, QueryMode::kFlatTriggered);
  LightSensor light(light_node_.get(), config, /*light_id=*/3);

  audio.Start();
  user.Start();
  light.Start();
  sim_.RunUntil(2 * kMinute);

  EXPECT_FALSE(audio.lights_tasked());
  EXPECT_GE(user.triggers_sent(), 3u);
  EXPECT_GE(user.delivered_events(), 3u);
}

TEST_F(NestedQueryTest, LightReportsStayLocalInNestedMode) {
  NestedQueryConfig config;
  config.toggle_period = 30 * kSecond;
  QueryUser user(user_node_.get(), config, QueryMode::kNested);
  AudioSensor audio(audio_node_.get(), config, QueryMode::kNested);
  LightSensor light(light_node_.get(), config, 3);
  audio.Start();
  user.Start();
  light.Start();
  sim_.RunUntil(2 * kMinute);

  // In nested mode light data terminates at the audio node: the audio node
  // never forwards light-typed data to the user, so the user node's
  // delivered data is audio only. Compare total bytes in flat mode (run in
  // the sibling test) qualitatively via the audio node's forwarding count:
  // the audio node forwards far fewer messages than the light node sends.
  EXPECT_GE(light.reports_sent(), 50u);
  EXPECT_LT(audio_node_->stats().messages_forwarded, light.reports_sent() / 2);
}

}  // namespace
}  // namespace diffusion
