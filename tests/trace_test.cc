// Flight-recorder tests: kind-name round trips, zero-perturbation when
// disabled, sim-time ordering, JSONL round trips, and the acceptance check —
// a reinforced flow's full hop-by-hop path replayed from a parsed trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/node.h"
#include "src/naming/keys.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/trace/trace_writer.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeLineChannel;

AttributeVector Query() {
  return {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "light")};
}

AttributeVector Publication() {
  return {Attribute::String(kKeyType, AttrOp::kIs, "light")};
}

AttributeVector Reading(int32_t value) {
  return {Attribute::Int32(kKeySequence, AttrOp::kIs, value)};
}

TEST(TraceKindTest, NamesRoundTrip) {
  for (size_t i = 0; i < kTraceEventKindCount; ++i) {
    const TraceEventKind kind = static_cast<TraceEventKind>(i);
    const std::string name = TraceEventKindName(kind);
    EXPECT_NE(name, "unknown") << i;
    TraceEventKind parsed;
    ASSERT_TRUE(TraceEventKindFromName(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
  }
  EXPECT_STREQ(TraceEventKindName(static_cast<TraceEventKind>(kTraceEventKindCount)), "unknown");
  TraceEventKind parsed;
  EXPECT_FALSE(TraceEventKindFromName("no_such_event", &parsed));
}

// Runs a minimal 3-node line flow (sink 1 - relay 2 - source 3) and returns
// the sink's stats; when `sink` is non-null it records the whole run.
NodeStats RunLineFlow(TraceSink* trace_sink) {
  Simulator sim(7);
  if (trace_sink != nullptr) {
    sim.set_trace_sink(trace_sink);
  }
  auto channel = MakeLineChannel(&sim, 3);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode relay(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(2 * kSecond);
  (void)source.Send(pub, Reading(0));  // exploratory (send_count 0)
  sim.RunUntil(4 * kSecond);
  (void)source.Send(pub, Reading(1));  // regular data on the reinforced path
  sim.RunUntil(6 * kSecond);
  return sink.stats();
}

TEST(TraceSinkTest, DisabledRunMatchesTracedRun) {
  MemoryTraceSink recorder;
  const NodeStats traced = RunLineFlow(&recorder);
  const NodeStats untraced = RunLineFlow(nullptr);

  // Tracing observes; it must not perturb the protocol.
  EXPECT_EQ(traced.messages_sent, untraced.messages_sent);
  EXPECT_EQ(traced.bytes_sent, untraced.bytes_sent);
  EXPECT_EQ(traced.data_delivered_local, untraced.data_delivered_local);
  EXPECT_GT(recorder.events().size(), 0u);
}

TEST(TraceSinkTest, EventsOrderedBySimTime) {
  MemoryTraceSink recorder;
  RunLineFlow(&recorder);
  ASSERT_GT(recorder.events().size(), 1u);
  for (size_t i = 1; i < recorder.events().size(); ++i) {
    EXPECT_GE(recorder.events()[i].when, recorder.events()[i - 1].when) << "at event " << i;
  }
}

TEST(TraceJsonTest, EventRoundTrips) {
  const TraceEvent events[] = {
      {61250, TraceEventKind::kDataForward, 22, 16, (uint64_t{25} << 32) | 12, 114},
      {0, TraceEventKind::kInterestSent, 1, kBroadcastId, 0, 0},
      {123456789012345, TraceEventKind::kReinforcementSent, 7, 3,
       (uint64_t{0xffffffffu} << 32) | 0xffffffffu, -1},
      {42, TraceEventKind::kEnergyState, 9, kBroadcastId, 0, 2},
  };
  for (const TraceEvent& event : events) {
    const std::string line = TraceEventToJson(event);
    const std::optional<TraceEvent> parsed = TraceEventFromJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(*parsed, event) << line;
  }
  EXPECT_FALSE(TraceEventFromJson("not json").has_value());
  EXPECT_FALSE(TraceEventFromJson("{\"t\":1,\"kind\":\"bogus\",\"node\":1}").has_value());
}

TEST(TraceJsonTest, WriterFileReadsBack) {
  const std::string path = ::testing::TempDir() + "/trace_writer_test.jsonl";
  MemoryTraceSink recorder;
  {
    TraceWriter writer(path);
    ASSERT_TRUE(writer.ok());
    TeeTraceSink tee(&writer, &recorder);
    RunLineFlow(&tee);
    EXPECT_EQ(writer.written(), recorder.events().size());
  }
  const std::vector<TraceEvent> parsed = ReadTraceFile(path);
  ASSERT_EQ(parsed.size(), recorder.events().size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], recorder.events()[i]) << "at line " << i;
  }
}

// Returns the first event in `events` matching kind+node (and packet when
// non-zero), or nullptr.
const TraceEvent* Find(const std::vector<TraceEvent>& events, TraceEventKind kind, NodeId node,
                       uint64_t packet = 0) {
  for (const TraceEvent& event : events) {
    if (event.kind == kind && event.node == node && (packet == 0 || event.packet == packet)) {
      return &event;
    }
  }
  return nullptr;
}

// The acceptance check: a reinforced flow's full lifecycle — interest flood,
// gradient setup, exploratory data, reinforcement, reinforced data — replayed
// hop by hop from the parsed JSONL trace.
TEST(TraceReplayTest, ReplaysReinforcedFlowHopByHop) {
  const std::string path = ::testing::TempDir() + "/trace_replay_test.jsonl";
  {
    TraceWriter writer(path);
    ASSERT_TRUE(writer.ok());
    RunLineFlow(&writer);
  }
  const std::vector<TraceEvent> events = ReadTraceFile(path);
  ASSERT_GT(events.size(), 0u);

  // Phase 1: the sink's interest floods 1 -> 2 -> 3, creating gradients back
  // toward the sink at each hop.
  const TraceEvent* interest_sent = Find(events, TraceEventKind::kInterestSent, 1);
  ASSERT_NE(interest_sent, nullptr);
  const uint64_t interest = interest_sent->packet;
  const TraceEvent* interest_at_relay =
      Find(events, TraceEventKind::kInterestReceived, 2, interest);
  ASSERT_NE(interest_at_relay, nullptr);
  EXPECT_EQ(interest_at_relay->peer, 1u);
  ASSERT_NE(Find(events, TraceEventKind::kGradientCreated, 2, interest), nullptr);
  const TraceEvent* interest_at_source =
      Find(events, TraceEventKind::kInterestReceived, 3, interest);
  ASSERT_NE(interest_at_source, nullptr);
  EXPECT_EQ(interest_at_source->peer, 2u);
  ASSERT_NE(Find(events, TraceEventKind::kGradientCreated, 3, interest), nullptr);

  // Phase 2: the first event leaves the source exploratory and reaches the
  // sink via the relay.
  const TraceEvent* exploratory = Find(events, TraceEventKind::kExploratoryForward, 3);
  ASSERT_NE(exploratory, nullptr);
  const uint64_t exploratory_packet = exploratory->packet;
  ASSERT_NE(Find(events, TraceEventKind::kExploratoryForward, 2, exploratory_packet), nullptr);
  const TraceEvent* exploratory_delivered =
      Find(events, TraceEventKind::kDataDelivered, 1, exploratory_packet);
  ASSERT_NE(exploratory_delivered, nullptr);

  // Phase 3: the sink reinforces its upstream, and the reinforcement cascades
  // to the source.
  const TraceEvent* sink_reinforce = Find(events, TraceEventKind::kReinforcementSent, 1);
  ASSERT_NE(sink_reinforce, nullptr);
  EXPECT_EQ(sink_reinforce->peer, 2u);
  EXPECT_EQ(sink_reinforce->value, 1);
  ASSERT_NE(Find(events, TraceEventKind::kGradientReinforced, 2), nullptr);
  const TraceEvent* relay_reinforce = Find(events, TraceEventKind::kReinforcementSent, 2);
  ASSERT_NE(relay_reinforce, nullptr);
  EXPECT_EQ(relay_reinforce->peer, 3u);
  ASSERT_NE(Find(events, TraceEventKind::kGradientReinforced, 3), nullptr);

  // Phase 4: the second event travels the reinforced path as regular data,
  // hop by hop in time order: tx at 3, rx+tx at 2, rx+delivery at 1.
  const TraceEvent* data_tx = Find(events, TraceEventKind::kDataForward, 3);
  ASSERT_NE(data_tx, nullptr);
  const uint64_t data = data_tx->packet;
  EXPECT_NE(data, exploratory_packet);
  EXPECT_EQ(data_tx->peer, 2u);
  const TraceEvent* data_at_relay = Find(events, TraceEventKind::kDataReceived, 2, data);
  ASSERT_NE(data_at_relay, nullptr);
  EXPECT_EQ(data_at_relay->peer, 3u);
  EXPECT_EQ(data_at_relay->value, 0);  // not exploratory
  const TraceEvent* data_relayed = Find(events, TraceEventKind::kDataForward, 2, data);
  ASSERT_NE(data_relayed, nullptr);
  EXPECT_EQ(data_relayed->peer, 1u);
  const TraceEvent* data_at_sink = Find(events, TraceEventKind::kDataReceived, 1, data);
  ASSERT_NE(data_at_sink, nullptr);
  EXPECT_EQ(data_at_sink->peer, 2u);
  const TraceEvent* delivered = Find(events, TraceEventKind::kDataDelivered, 1, data);
  ASSERT_NE(delivered, nullptr);

  // The hop chain is causally ordered in sim time.
  EXPECT_LE(interest_sent->when, interest_at_relay->when);
  EXPECT_LE(interest_at_relay->when, interest_at_source->when);
  EXPECT_LE(data_tx->when, data_at_relay->when);
  EXPECT_LE(data_at_relay->when, data_relayed->when);
  EXPECT_LE(data_relayed->when, data_at_sink->when);
  EXPECT_LE(data_at_sink->when, delivered->when);
}

TEST(MetricsRegistryTest, RegistersCollectsAndUnregisters) {
  MetricsRegistry registry;
  uint64_t sent = 0;
  double depth = 0.0;
  registry.RegisterCounter(4, "radio.messages_sent",
                           [&sent] { return static_cast<double>(sent); });
  registry.RegisterGauge(4, "mac.queue_depth", [&depth] { return depth; });
  registry.RegisterGlobalCounter("channel.collisions", [] { return 3.0; });

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.nodes(), std::vector<NodeId>{4});

  sent = 17;
  depth = 2.5;
  const std::map<std::string, double> collected = registry.Collect(4);
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected.at("radio.messages_sent"), 17.0);
  EXPECT_EQ(collected.at("mac.queue_depth"), 2.5);
  EXPECT_EQ(registry.CollectGlobal().at("channel.collisions"), 3.0);
  EXPECT_TRUE(registry.Collect(99).empty());

  registry.UnregisterNode(4);
  EXPECT_TRUE(registry.Collect(4).empty());
  EXPECT_EQ(registry.size(), 1u);  // the global survives
}

}  // namespace
}  // namespace diffusion
