// Tests for the cache filter and the network monitor.

#include <gtest/gtest.h>

#include "src/core/node.h"
#include "src/filters/cache_filter.h"
#include "src/naming/keys.h"
#include "src/testbed/monitor.h"
#include "tests/test_util.h"

namespace diffusion {
namespace {

using testing_support::FastRadio;
using testing_support::MakeCliqueChannel;
using testing_support::MakeLineChannel;

AttributeVector Query() {
  return {ClassEq(kClassData), Attribute::String(kKeyType, AttrOp::kEq, "temp")};
}

AttributeVector Publication() {
  return {Attribute::String(kKeyType, AttrOp::kIs, "temp")};
}

// ---- CacheFilter ----

TEST(CacheFilterTest, ReplaysCachedDataToLateSubscriber) {
  Simulator sim(61);
  auto channel = MakeLineChannel(&sim, 3);
  DiffusionNode sink_a(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode relay(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});

  CacheFilter cache(&relay, Query(), 10);

  // First subscriber pulls one reading through the relay (which caches it).
  int a_received = 0;
  (void)sink_a.Subscribe(Query(), [&](const AttributeVector&) { ++a_received; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  (void)source.Send(pub, {Attribute::Float64(kKeyIntensity, AttrOp::kIs, 21.5),
                    Attribute::Int32(kKeySequence, AttrOp::kIs, 1)});
  sim.RunUntil(3 * kSecond);
  ASSERT_EQ(a_received, 1);
  EXPECT_EQ(cache.size(), 1u);

  // The source now goes quiet. A *new* subscription from node 1 still gets
  // the cached reading, served by the relay.
  int late_received = 0;
  (void)sink_a.Subscribe(Query(), [&](const AttributeVector& attrs) {
    const Attribute* value = FindActual(attrs, kKeyIntensity);
    EXPECT_DOUBLE_EQ(value->AsDouble().value_or(0), 21.5);
    ++late_received;
  });
  sim.RunUntil(10 * kSecond);
  EXPECT_GE(late_received, 1);
  EXPECT_GE(cache.replays(), 1u);
}

TEST(CacheFilterTest, DoesNotReplayStaleData) {
  Simulator sim(62);
  auto channel = MakeLineChannel(&sim, 3);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode relay(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 3, NodeOptions{.radio = FastRadio()});
  CacheFilter cache(&relay, Query(), 10, /*capacity=*/16, /*max_age=*/5 * kSecond);

  int received = 0;
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++received; });
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  (void)source.Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 1)});
  sim.RunUntil(3 * kSecond);
  ASSERT_EQ(received, 1);

  // Wait past max_age, then subscribe anew: nothing to replay.
  sim.RunUntil(30 * kSecond);
  (void)sink.Subscribe(Query(), [&](const AttributeVector&) { ++received; });
  sim.RunUntil(40 * kSecond);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(cache.replays(), 0u);
}

TEST(CacheFilterTest, CapacityBoundsEntries) {
  Simulator sim(63);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  CacheFilter cache(&node, Query(), 10, /*capacity=*/3);
  (void)node.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = node.Publish(Publication());
  sim.RunUntil(100 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    (void)node.Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, i)});
  }
  sim.RunUntil(kSecond);
  EXPECT_LE(cache.size(), 3u);
  EXPECT_EQ(cache.cached(), 10u);
}

TEST(CacheFilterTest, RetransmissionRefreshesInsteadOfDuplicating) {
  Simulator sim(64);
  auto channel = MakeCliqueChannel(&sim, 2);
  DiffusionNode node(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  CacheFilter cache(&node, Query(), 10);
  (void)node.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = node.Publish(Publication());
  sim.RunUntil(100 * kMillisecond);
  // The same attribute set sent twice occupies one cache entry.
  (void)node.Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 5)});
  (void)node.Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 5)});
  sim.RunUntil(kSecond);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cached(), 1u);
}

// ---- NetworkMonitor ----

TEST(NetworkMonitorTest, SnapshotsCountTraffic) {
  Simulator sim(65);
  auto channel = MakeLineChannel(&sim, 3);
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  NetworkMonitor monitor(channel.get());
  for (NodeId id = 1; id <= 3; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.radio = FastRadio()}));
    monitor.Track(nodes.back().get());
  }
  const NetworkMonitor::Snapshot before = monitor.TakeSnapshot();
  EXPECT_EQ(before.diffusion_messages, 0u);

  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = nodes[2]->Publish(Publication());
  sim.RunUntil(kSecond);
  (void)nodes[2]->Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 1)});
  sim.RunUntil(5 * kSecond);

  const NetworkMonitor::Snapshot after = monitor.TakeSnapshot();
  EXPECT_GT(after.diffusion_messages, before.diffusion_messages);
  EXPECT_GT(after.diffusion_bytes, 0u);
  EXPECT_GT(after.deliveries, 0u);
  EXPECT_GE(NetworkMonitor::CollisionRate(before, after), 0.0);
  EXPECT_LE(NetworkMonitor::CollisionRate(before, after), 1.0);
}

TEST(NetworkMonitorTest, TopologyReportShowsHeardNeighbors) {
  Simulator sim(66);
  auto channel = MakeLineChannel(&sim, 3);
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  NetworkMonitor monitor(channel.get());
  for (NodeId id = 1; id <= 3; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.radio = FastRadio()}));
    monitor.Track(nodes.back().get());
  }
  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(5 * kSecond);
  const std::string report = monitor.TopologyReport();
  // Node 2 heard both line neighbors; node 3 heard only node 2.
  EXPECT_NE(report.find("node 2: 1 3"), std::string::npos) << report;
  EXPECT_NE(report.find("node 3: 2"), std::string::npos) << report;
}

TEST(NetworkMonitorTest, DeadNodesMarked) {
  Simulator sim(67);
  auto channel = MakeLineChannel(&sim, 2);
  DiffusionNode a(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode b(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  NetworkMonitor monitor(channel.get());
  monitor.Track(&a);
  monitor.Track(&b);
  b.Kill();
  EXPECT_NE(monitor.TopologyReport().find("node 2 (dead)"), std::string::npos);
}

TEST(NetworkMonitorTest, NodeReportRendersAllNodes) {
  Simulator sim(68);
  auto channel = MakeLineChannel(&sim, 2);
  DiffusionNode a(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode b(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  NetworkMonitor monitor(channel.get());
  monitor.Track(&a);
  monitor.Track(&b);
  const NetworkMonitor::Snapshot begin = monitor.TakeSnapshot();
  (void)a.Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(10 * kSecond);
  const std::string report = monitor.NodeReport(begin, 0.22);
  EXPECT_NE(report.find("node"), std::string::npos);
  EXPECT_NE(report.find("energy"), std::string::npos);
  EXPECT_NE(report.find("duty 0.22"), std::string::npos);
}

TEST(NetworkMonitorTest, PerNodeMetricsSumToAggregateSnapshot) {
  Simulator sim(69);
  auto channel = MakeLineChannel(&sim, 3);
  std::vector<std::unique_ptr<DiffusionNode>> nodes;
  NetworkMonitor monitor(channel.get());
  for (NodeId id = 1; id <= 3; ++id) {
    nodes.push_back(std::make_unique<DiffusionNode>(
        &sim, channel.get(), id, NodeOptions{.radio = FastRadio()}));
    monitor.Track(nodes.back().get());
  }
  (void)nodes[0]->Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = nodes[2]->Publish(Publication());
  sim.RunUntil(kSecond);
  (void)nodes[2]->Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 1)});
  (void)nodes[2]->Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 2)});
  sim.RunUntil(10 * kSecond);

  // The registry view and the legacy aggregate snapshot describe the same
  // network: per-node metrics summed across nodes equal the aggregate.
  const NetworkMonitor::Snapshot aggregate = monitor.TakeSnapshot();
  double messages = 0.0;
  double bytes = 0.0;
  double duplicates = 0.0;
  double mac_drops = 0.0;
  for (const NetworkMonitor::NodeSnapshot& snapshot : monitor.TakeNodeSnapshots()) {
    messages += snapshot.metrics.at("diffusion.messages_sent");
    bytes += snapshot.metrics.at("diffusion.bytes_sent");
    duplicates += snapshot.metrics.at("diffusion.duplicates_suppressed");
    mac_drops += snapshot.metrics.at("mac.drops_queue_full") +
                 snapshot.metrics.at("mac.drops_channel_busy");
  }
  EXPECT_EQ(static_cast<uint64_t>(messages), aggregate.diffusion_messages);
  EXPECT_EQ(static_cast<uint64_t>(bytes), aggregate.diffusion_bytes);
  EXPECT_EQ(static_cast<uint64_t>(duplicates), aggregate.duplicates_suppressed);
  EXPECT_EQ(static_cast<uint64_t>(mac_drops), aggregate.mac_drops);
  EXPECT_GT(messages, 0.0);

  // The channel's global metrics line up with the aggregate too.
  const std::map<std::string, double> global = monitor.metrics().CollectGlobal();
  EXPECT_EQ(static_cast<uint64_t>(global.at("channel.transmissions")),
            aggregate.radio_transmissions);
  EXPECT_EQ(static_cast<uint64_t>(global.at("channel.collisions")), aggregate.collisions);
  EXPECT_EQ(static_cast<uint64_t>(global.at("channel.deliveries")), aggregate.deliveries);
}

TEST(NetworkMonitorTest, SamplingBuildsPerNodeTimeSeries) {
  Simulator sim(70);
  auto channel = MakeLineChannel(&sim, 2);
  DiffusionNode a(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode b(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  NetworkMonitor monitor(channel.get());
  monitor.Track(&a);
  monitor.Track(&b);

  monitor.StartSampling(kSecond);
  (void)a.Subscribe(Query(), [](const AttributeVector&) {});
  sim.RunUntil(5 * kSecond + 500 * kMillisecond);
  monitor.StopSampling();
  sim.RunUntil(20 * kSecond);

  // 5 sample points x 2 nodes, none after StopSampling.
  ASSERT_EQ(monitor.series().size(), 10u);
  for (size_t i = 0; i < monitor.series().size(); ++i) {
    const NetworkMonitor::NodeSnapshot& snapshot = monitor.series()[i];
    EXPECT_EQ(snapshot.when, static_cast<SimTime>(i / 2 + 1) * kSecond);
    EXPECT_FALSE(snapshot.metrics.empty());
  }
  // Counters are monotone along each node's series.
  const auto& series = monitor.series();
  EXPECT_GE(series[8].metrics.at("diffusion.messages_sent"),
            series[0].metrics.at("diffusion.messages_sent"));
}

TEST(NetworkMonitorTest, PacketTraceQueryReplaysRecordedFlow) {
  Simulator sim(71);
  MemoryTraceSink recorder;
  sim.set_trace_sink(&recorder);
  auto channel = MakeLineChannel(&sim, 2);
  DiffusionNode sink(&sim, channel.get(), 1, NodeOptions{.radio = FastRadio()});
  DiffusionNode source(&sim, channel.get(), 2, NodeOptions{.radio = FastRadio()});
  NetworkMonitor monitor(channel.get());
  monitor.Track(&sink);
  monitor.Track(&source);

  // Without an attached buffer the query is empty, not a crash.
  EXPECT_TRUE(monitor.PacketTrace(1).empty());

  monitor.AttachTraceBuffer(&recorder);
  (void)sink.Subscribe(Query(), [](const AttributeVector&) {});
  const PublicationHandle pub = source.Publish(Publication());
  sim.RunUntil(kSecond);
  (void)source.Send(pub, {Attribute::Int32(kKeySequence, AttrOp::kIs, 9)});
  sim.RunUntil(5 * kSecond);

  // Find the delivered data packet and replay its path.
  uint64_t packet = 0;
  for (const TraceEvent& event : recorder.events()) {
    if (event.kind == TraceEventKind::kDataDelivered && event.node == 1) {
      packet = event.packet;
    }
  }
  ASSERT_NE(packet, 0u);
  const std::vector<TraceEvent> trace = monitor.PacketTrace(packet);
  ASSERT_GE(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].when, trace[i - 1].when);
  }
  const std::string report = monitor.PacketTraceReport(packet);
  EXPECT_NE(report.find("data_delivered"), std::string::npos) << report;
  EXPECT_NE(report.find("node 1"), std::string::npos) << report;
}

}  // namespace
}  // namespace diffusion
