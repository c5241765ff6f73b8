// Differential tests for the sharded parallel simulation core: the spatial
// partition, the conservative-window engine, the cross-region mailboxes, and
// the multi-region TestbedWorld. The load-bearing properties are
//   (a) one region reproduces the monolithic sequential run byte-for-byte,
//   (b) output is invariant under the thread count — the determinism gate
//       bench/parallel_scaling enforces at 10k nodes, pinned here on small
//       topologies where the full traces can be compared, and
//   (c) frames cross region borders correctly (multi-fragment reassembly,
//       node failures mid-window), and
//   (d) skipping idle windows changes nothing: barriers stay on the window
//       grid and a seeded cross-region workload matches a reference that
//       steps every window, and
//   (e) the barrier holds with more threads than hardware threads, and
//       passes region exceptions on.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/radio/channel.h"
#include "src/radio/region_bridge.h"
#include "src/radio/region_mailbox.h"
#include "src/radio/region_map.h"
#include "src/sim/sharded_engine.h"
#include "src/testbed/testbed_world.h"
#include "src/testbed/topology.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

// Death tests fork (or clone) the process; TSan instrumented binaries do not
// support that, and the parallel suite runs under TSan in CI.
#if defined(__SANITIZE_THREAD__)
#define DIFFUSION_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DIFFUSION_TEST_TSAN 1
#endif
#endif

namespace diffusion {
namespace {

TEST(RegionMapTest, PartitionsGridIntoRegions) {
  const TestbedLayout layout = GridLayout(10, 10, 10.0, 12.0);
  const RegionMap map(layout.node_ids, layout.positions, 4);
  EXPECT_EQ(map.regions(), 4);

  size_t total = 0;
  for (int region = 0; region < map.regions(); ++region) {
    const std::vector<NodeId>& members = map.nodes_in(region);
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (NodeId node : members) {
      EXPECT_EQ(map.RegionOf(node), region);
    }
    total += members.size();
  }
  EXPECT_EQ(total, layout.node_ids.size());
  EXPECT_EQ(map.RegionOf(9999), -1);
}

TEST(RegionMapTest, WideFieldSplitsAlongX) {
  // Two clusters far apart in x, flat in y: a 2-region split must cut
  // between the clusters, not across them.
  TestbedLayout layout;
  layout.node_ids = {1, 2, 3, 4};
  layout.positions[1] = Position{0.0, 0.0};
  layout.positions[2] = Position{5.0, 10.0};
  layout.positions[3] = Position{200.0, 0.0};
  layout.positions[4] = Position{205.0, 10.0};
  const RegionMap map(layout.node_ids, layout.positions, 2);
  EXPECT_EQ(map.regions(), 2);
  EXPECT_EQ(map.RegionOf(1), map.RegionOf(2));
  EXPECT_EQ(map.RegionOf(3), map.RegionOf(4));
  EXPECT_NE(map.RegionOf(1), map.RegionOf(3));
}

TEST(RegionLinkMatrixTest, LinksReachableCellsOnly) {
  const TestbedLayout layout = GridLayout(10, 10, 10.0, 12.0);
  const RegionMap map(layout.node_ids, layout.positions, 9);
  ASSERT_EQ(map.regions(), 9);
  const auto propagation = MakePropagation(layout, 1.0);
  const RegionLinkMatrix matrix(map, *propagation, TestbedRadioConfig().mac);

  // Adjacent cells share an edge: nodes near it reach across.
  EXPECT_TRUE(matrix.Linked(0, 1));
  // Opposite corners of a 3x3 grid over a 90 m field are far beyond the
  // 12 m disk.
  EXPECT_FALSE(matrix.Linked(0, 8));
  EXPECT_GT(matrix.linked_pairs(), 0);
  EXPECT_GT(matrix.min_frame_airtime(), 0);

  // A border node has remote targets; the grid center (spacing 10, range 12,
  // 30 m cells) cannot reach a foreign cell.
  bool any_remote = false;
  for (NodeId node : layout.node_ids) {
    any_remote = any_remote || !matrix.RemoteTargets(node).empty();
  }
  EXPECT_TRUE(any_remote);
}

TEST(RegionLinkMatrixTest, LinkOverrideCouplesDistantRegions) {
  TestbedLayout layout;
  layout.node_ids = {1, 2};
  layout.positions[1] = Position{0.0, 0.0};
  layout.positions[2] = Position{200.0, 0.0};
  layout.radio_range = 12.0;
  const RegionMap map(layout.node_ids, layout.positions, 2);
  auto propagation = MakePropagation(layout, 1.0);
  const RegionLinkMatrix before(map, *propagation, TestbedRadioConfig().mac);
  EXPECT_FALSE(before.Linked(map.RegionOf(1), map.RegionOf(2)));

  propagation->SetLinkQuality(1, 2, LinkQuality{.delivery_probability = 1.0});
  const RegionLinkMatrix after(map, *propagation, TestbedRadioConfig().mac);
  EXPECT_TRUE(after.Linked(map.RegionOf(1), map.RegionOf(2)));
  EXPECT_FALSE(after.Linked(map.RegionOf(2), map.RegionOf(1)));
}

TEST(RegionSeedTest, RegionZeroKeepsRunSeed) {
  EXPECT_EQ(RegionSeed(42, 0), 42u);
  EXPECT_NE(RegionSeed(42, 1), 42u);
  EXPECT_NE(RegionSeed(42, 1), RegionSeed(42, 2));
  EXPECT_NE(RegionSeed(42, 1), RegionSeed(43, 1));
}

// Stack-owned WireBody for the mailbox tests.
class TestWireBody final : public WireBody {
 public:
  explicit TestWireBody(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  size_t wire_size() const override { return bytes_.size(); }
  void AppendBytes(std::vector<uint8_t>* out) const override {
    out->insert(out->end(), bytes_.begin(), bytes_.end());
  }

 private:
  void Recycle() override {}  // storage lives on the test's stack

  std::vector<uint8_t> bytes_;
};

// An endpoint that only has to be there: alive, idle, deaf to content.
class SilentEndpoint : public ChannelEndpoint {
 public:
  explicit SilentEndpoint(NodeId id) : id_(id) {}
  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return true; }
  bool IsTransmitting() const override { return false; }
  void OnFrameDelivered(const Fragment&, SimDuration) override {}

 private:
  NodeId id_;
};

// The bridge keeps each sender's border targets per channel slot. For every
// node of a grid, the regions one frame of its lands in must be exactly
// RegionLinkMatrix::RemoteTargets, before and after the node detaches and a
// fresh endpoint attaches under its id.
TEST(RegionBridgeTest, BorderTargetsMatchTheMatrixPerNode) {
  for (const auto& [side, target_regions] : {std::pair{10, 4}, std::pair{12, 16}}) {
    SCOPED_TRACE(testing::Message() << target_regions << " regions");
    const TestbedLayout layout =
        GridLayout(static_cast<size_t>(side), static_cast<size_t>(side), 10.0, 12.0);
    const RegionMap map(layout.node_ids, layout.positions, target_regions);
    ASSERT_EQ(map.regions(), target_regions);
    const RegionLinkMatrix matrix(map, *MakePropagation(layout, 1.0), TestbedRadioConfig().mac);
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<std::unique_ptr<Channel>> channels;
    std::vector<Channel*> channel_ptrs;
    for (int region = 0; region < map.regions(); ++region) {
      sims.push_back(std::make_unique<Simulator>(static_cast<uint64_t>(region) + 1));
      channels.push_back(
          std::make_unique<Channel>(sims.back().get(), MakePropagation(layout, 1.0)));
      channel_ptrs.push_back(channels.back().get());
    }
    RegionBridge bridge(&matrix, channel_ptrs);
    std::vector<std::unique_ptr<SilentEndpoint>> endpoints;
    std::map<NodeId, SilentEndpoint*> endpoint_of;
    auto attach = [&](NodeId id) {
      endpoints.push_back(std::make_unique<SilentEndpoint>(id));
      channels[static_cast<size_t>(map.RegionOf(id))]->Attach(endpoints.back().get());
      endpoint_of[id] = endpoints.back().get();
    };
    for (NodeId id : layout.node_ids) {
      attach(id);
    }

    SimTime now = 0;
    // The regions other than the sender's that receive its one frame.
    auto landed_in = [&](NodeId id) {
      now += kSecond;
      for (const auto& sim : sims) {
        sim->RunUntil(now);
      }
      const int home = map.RegionOf(id);
      Fragment frame;
      frame.src = id;
      frame.payload_len = 4;
      frame.body = ByteBody::Make(&sims[static_cast<size_t>(home)]->slot_pool(), {1, 2, 3, 4});
      channels[static_cast<size_t>(home)]->Transmit(*endpoint_of[id], std::move(frame),
                                                    kMillisecond);
      sims[static_cast<size_t>(home)]->RunUntil(now + 10 * kMillisecond);
      std::vector<int> regions;
      for (int dst = 0; dst < map.regions(); ++dst) {
        if (dst == home) {
          continue;
        }
        bridge.DrainInto(dst, now + 10 * kMillisecond);
        // Nothing else is pending there, so each event is one border frame.
        const size_t frames = sims[static_cast<size_t>(dst)]->RunUntil(now + 20 * kMillisecond);
        EXPECT_LE(frames, 1u) << "node " << id << " into region " << dst;
        if (frames == 1) {
          regions.push_back(dst);
        }
      }
      return regions;
    };

    size_t border_nodes = 0;
    for (NodeId id : layout.node_ids) {
      EXPECT_EQ(landed_in(id), matrix.RemoteTargets(id)) << "node " << id;
      border_nodes += matrix.RemoteTargets(id).empty() ? 0 : 1;
    }
    EXPECT_GT(border_nodes, 0u);
    for (NodeId id : layout.node_ids) {
      channels[static_cast<size_t>(map.RegionOf(id))]->Detach(id);
      attach(id);
      EXPECT_EQ(landed_in(id), matrix.RemoteTargets(id)) << "node " << id << " reattached";
    }
  }
}

TEST(RegionMailboxTest, DrainMergesAcrossSourcesInOrder) {
  RegionMailboxPool pool(3);
  // The test thread legitimately plays both sides of the barrier: with no
  // engine running, every call here happens "between windows".
  pool.writer_role().Assert();
  pool.barrier_role().Assert();
  pool.Link(0, 1);
  pool.Link(2, 1);

  TestWireBody body({1, 2, 3});
  Fragment fragment;
  fragment.src = 7;
  fragment.message_seq = 1;
  fragment.body = BodyRef(&body);
  fragment.payload_len = 3;
  pool.Post(2, 1, 20, fragment, 500, 10);
  pool.Post(0, 1, 10, fragment, 500, 10);  // same start: src region 0 first
  pool.Post(0, 1, 11, fragment, 100, 10);

  EXPECT_TRUE(pool.HasPending(1));
  std::vector<const BorderFrame*> drained;
  pool.DrainInto(1, &drained);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0]->sender, 11u);
  EXPECT_EQ(drained[1]->sender, 10u);
  EXPECT_EQ(drained[2]->sender, 20u);
  EXPECT_EQ(drained[0]->bytes, std::vector<uint8_t>({1, 2, 3}));
  EXPECT_EQ(drained[0]->fragment.payload_len, 3u);
  EXPECT_FALSE(pool.HasPending(1));
  EXPECT_EQ(pool.posted_to(1), 3u);

  // Slots recycle: a second round reuses them and drains cleanly.
  pool.Post(0, 1, 12, fragment, 900, 10);
  pool.DrainInto(1, &drained);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0]->sender, 12u);
  EXPECT_EQ(pool.posted_to(1), 4u);
}

TEST(RegionMailboxTest, FlattensZeroCopyBodies) {
  RegionMailboxPool pool(2);
  pool.writer_role().Assert();
  pool.barrier_role().Assert();
  pool.Link(0, 1);

  // A fragment must cross as plain bytes: its header and byte range plus
  // its message's materialized image, no body reference.
  TestWireBody body({9, 8, 7, 6, 5, 4});
  Fragment fragment;
  fragment.body = BodyRef(&body);
  fragment.body_offset = 2;
  fragment.payload_len = 3;
  pool.Post(0, 1, 1, fragment, 10, 5);

  std::vector<const BorderFrame*> drained;
  pool.DrainInto(1, &drained);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_FALSE(drained[0]->fragment.body);
  EXPECT_EQ(drained[0]->bytes, std::vector<uint8_t>({9, 8, 7, 6, 5, 4}));
  EXPECT_EQ(drained[0]->fragment.body_offset, 2u);
  EXPECT_EQ(drained[0]->fragment.payload_len, 3u);
}

// Pins the invariant diffusion-lint DL009 checks statically and the clang
// writer-role annotation checks at compile time: a second thread posting
// into the same (src, dst) mailbox within one window trips the dynamic
// owner check in RegionMailboxPool::Post and aborts.
TEST(RegionMailboxDeathTest, SecondWriterTripsOwnerCheck) {
#if defined(DIFFUSION_TEST_TSAN)
  GTEST_SKIP() << "death tests are unsupported under TSan";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RegionMailboxPool pool(2);
  pool.writer_role().Assert();
  pool.barrier_role().Assert();
  pool.Link(0, 1);
  TestWireBody body({1});
  Fragment fragment;
  fragment.body = BodyRef(&body);
  fragment.payload_len = 1;
  pool.Post(0, 1, 1, fragment, 10, 5);  // pins the mailbox to this thread
  EXPECT_DEATH(
      {
        // In threadsafe style the child re-runs the test body, so the Post
        // above pinned the mailbox to the child's main thread; this fresh
        // thread is necessarily a second writer.
        std::thread second([&pool, &fragment] {
          pool.writer_role().Assert();
          pool.Post(0, 1, 2, fragment, 20, 5);
        });
        second.join();
      },
      "single-writer violation");
#endif
}

// The apps of the differential runs: one surveillance sink in one corner,
// sources in the others, over a grid layout.
struct GridApps {
  std::unique_ptr<SurveillanceSink> sink;
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
};

constexpr SimTime kSourceStart = 1 * kSecond;

GridApps StartApps(DiffusionNode* sink_node, const std::vector<DiffusionNode*>& source_nodes) {
  GridApps apps;
  SurveillanceConfig config;
  apps.sink = std::make_unique<SurveillanceSink>(sink_node, config);
  apps.sink->Start();
  for (DiffusionNode* node : source_nodes) {
    apps.sources.push_back(std::make_unique<SurveillanceSource>(
        node, config, static_cast<int32_t>(node->id())));
    SurveillanceSource* source = apps.sources.back().get();
    node->simulator().At(kSourceStart, [source] { source->Start(); });
  }
  return apps;
}

TEST(ShardedWorldTest, SingleRegionMatchesMonolithicByteForByte) {
  const TestbedLayout layout = GridLayout(4, 4, 10.0, 12.0);
  const uint64_t seed = 11;
  const SimTime end = 60 * kSecond;

  // Monolithic reference, constructed in the order TestbedWorld uses
  // (channel first, then nodes in layout order, here ascending by id).
  MemoryTraceSink mono_trace;
  std::vector<TraceEvent> mono_events;
  uint64_t mono_bytes = 0;
  {
    Simulator sim(seed);
    sim.set_trace_sink(&mono_trace);
    Channel channel(&sim, MakePropagation(layout, 0.98));
    std::vector<NodeId> ids = layout.node_ids;
    std::sort(ids.begin(), ids.end());
    std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
    for (NodeId id : ids) {
      nodes[id] = std::make_unique<DiffusionNode>(&sim, &channel, id);
    }
    GridApps apps = StartApps(nodes.at(1).get(), {nodes.at(16).get(), nodes.at(13).get()});
    sim.RunUntil(end);
    mono_events = mono_trace.events();
    for (const auto& [id, node] : nodes) {
      mono_bytes += node->stats().bytes_sent;
    }
  }

  MemoryTraceSink sharded_trace;
  std::vector<TraceEvent> sharded_events;
  uint64_t sharded_bytes = 0;
  {
    TestbedWorld world(seed, layout, MakePropagation(layout, 0.98), NodeOptions{}, &sharded_trace);
    ASSERT_EQ(world.regions(), 1);
    GridApps apps = StartApps(world.node(1), {world.node(16), world.node(13)});
    world.RunUntil(end);
    sharded_events = sharded_trace.events();
    sharded_bytes = world.TotalDiffusionBytes();
  }

  // The same world driven through the engine's window loop, per-region
  // trace buffering and barrier merge, which a one-region world skips.
  MemoryTraceSink windowed_trace;
  std::vector<TraceEvent> windowed_events;
  uint64_t windowed_bytes = 0;
  {
    TestbedWorld world(seed, layout, MakePropagation(layout, 0.98), NodeOptions{});
    world.engine().set_merged_trace_sink(&windowed_trace);
    GridApps apps = StartApps(world.node(1), {world.node(16), world.node(13)});
    world.engine().RunUntil(end);
    EXPECT_GT(world.engine().barriers_run(), 0u);
    windowed_events = windowed_trace.events();
    windowed_bytes = world.TotalDiffusionBytes();
  }

  EXPECT_GT(mono_events.size(), 100u);
  EXPECT_GT(mono_bytes, 0u);
  EXPECT_EQ(mono_bytes, sharded_bytes);
  EXPECT_EQ(mono_bytes, windowed_bytes);
  ASSERT_EQ(mono_events.size(), sharded_events.size());
  EXPECT_TRUE(mono_events == sharded_events);
  ASSERT_EQ(mono_events.size(), windowed_events.size());
  EXPECT_TRUE(mono_events == windowed_events);
}

// Fingerprint + byte totals of one sharded run.
struct RunDigest {
  uint64_t fingerprint = 0;
  uint64_t trace_events = 0;
  uint64_t bytes_sent = 0;
  uint64_t engine_events = 0;
  size_t distinct_events = 0;
  uint64_t frames_handed_off = 0;

  bool operator==(const RunDigest& other) const {
    return fingerprint == other.fingerprint && trace_events == other.trace_events &&
           bytes_sent == other.bytes_sent && engine_events == other.engine_events &&
           distinct_events == other.distinct_events &&
           frames_handed_off == other.frames_handed_off;
  }
};

RunDigest RunShardedGrid(const TestbedLayout& layout, int regions, unsigned threads,
                         uint64_t seed, SimTime end, SimTime kill_at = 0,
                         NodeId kill_node = 0) {
  FingerprintTraceSink trace;
  // The testbed's 300 ms forward jitter: at the 100 ms default, relays
  // collide on nearly every two-fragment interest flood (hidden terminals),
  // and some seeds deliver nothing.
  TestbedWorld world(seed, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.diffusion = TestbedDiffusionConfig()}, &trace,
                     {.regions = regions, .threads = threads});

  const NodeId last = layout.node_ids.back();
  GridApps apps = StartApps(world.node(1), {world.node(last), world.node(last - 1)});
  if (kill_at > 0) {
    DiffusionNode* victim = world.node(kill_node);
    world.sim_of(kill_node).At(kill_at, [victim] { victim->Kill(); });
    world.sim_of(kill_node).At(kill_at + 10 * kSecond, [victim] { victim->Revive(); });
  }

  RunDigest digest;
  digest.engine_events = world.RunUntil(end);
  digest.fingerprint = trace.fingerprint();
  digest.trace_events = trace.count();
  digest.bytes_sent = world.TotalDiffusionBytes();
  digest.distinct_events = apps.sink->distinct_events();
  digest.frames_handed_off = world.bridge().frames_handed_off();
  return digest;
}

TEST(ShardedWorldTest, OutputInvariantUnderThreadCount) {
  const TestbedLayout layout = GridLayout(8, 8, 10.0, 12.0);
  const SimTime end = 90 * kSecond;
  for (uint64_t seed : {1ull, 7ull}) {
    const RunDigest one = RunShardedGrid(layout, 4, 1, seed, end);
    const RunDigest two = RunShardedGrid(layout, 4, 2, seed, end);
    const RunDigest four = RunShardedGrid(layout, 4, 4, seed, end);
    EXPECT_GT(one.trace_events, 0u);
    EXPECT_GT(one.frames_handed_off, 0u);  // traffic actually crossed borders
    EXPECT_GT(one.distinct_events, 0u);    // ...and was delivered end to end
    EXPECT_TRUE(one == two) << "seed " << seed;
    EXPECT_TRUE(one == four) << "seed " << seed;
  }
}

// More workers than hardware threads, so some wait for a core: output
// still matches one thread.
TEST(ShardedWorldTest, OversubscribedThreadsMatchOneThread) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = cores + 1;
  // RegionMap keeps at least half the target, so every worker owns a region.
  const int regions = 2 * static_cast<int>(threads);
  const TestbedLayout layout = GridLayout(8, 8, 10.0, 12.0);
  {
    TestbedWorld world(1, layout, MakePropagation(layout, 0.98), NodeOptions{}, nullptr,
                       {.regions = regions, .threads = threads});
    ASSERT_EQ(world.engine().threads(), threads);
  }
  const SimTime end = 60 * kSecond;
  const RunDigest one = RunShardedGrid(layout, regions, 1, 1, end);
  const RunDigest many = RunShardedGrid(layout, regions, threads, 1, end);
  EXPECT_GT(one.trace_events, 0u);
  EXPECT_GT(one.frames_handed_off, 0u);
  EXPECT_TRUE(one == many);
}

TEST(ShardedWorldTest, CrossRegionFragmentReassembly) {
  // Two nodes straddling the region border, in radio range: the 112-byte
  // surveillance messages fragment into 27-byte frames that all cross the
  // border and reassemble at the sink.
  TestbedLayout layout;
  layout.node_ids = {1, 2};
  layout.positions[1] = Position{45.0, 0.0};
  layout.positions[2] = Position{55.0, 0.0};
  layout.radio_range = 12.0;

  TestbedWorld world(3, layout, MakePropagation(layout, 0.98), NodeOptions{}, nullptr,
                     {.regions = 2, .threads = 2});
  ASSERT_EQ(world.regions(), 2);
  ASSERT_NE(world.region_map().RegionOf(1), world.region_map().RegionOf(2));

  GridApps apps = StartApps(world.node(2), {world.node(1)});
  world.RunUntil(60 * kSecond);

  EXPECT_GT(world.bridge().frames_handed_off(), 0u);
  EXPECT_GE(apps.sink->distinct_events(), 5u);
  EXPECT_GT(apps.sink->total_received(), 0u);
}

TEST(ShardedWorldTest, CrashMidWindowIsDeterministic) {
  // A node killed (and revived) mid-run exercises delivery to dead nodes,
  // cancelled events, and gradient churn across the border — and must stay
  // invariant under the thread count. Also the TSan target for handoff
  // under churn.
  const TestbedLayout layout = GridLayout(6, 6, 10.0, 12.0);
  const SimTime end = 90 * kSecond;
  const NodeId victim = 15;  // interior node on the flood paths
  const RunDigest one = RunShardedGrid(layout, 4, 1, 5, end, 20 * kSecond, victim);
  const RunDigest four = RunShardedGrid(layout, 4, 4, 5, end, 20 * kSecond, victim);
  EXPECT_GT(one.trace_events, 0u);
  EXPECT_TRUE(one == four);
}

// The paper's own layout, cut in two: two floors, an inter-floor range and
// ids that are not ascending in layout order, on the testbed radio.
RunDigest RunIsiTestbed(unsigned threads) {
  const TestbedLayout layout = IsiTestbedLayout();
  FingerprintTraceSink trace;
  TestbedWorld world(4, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.diffusion = TestbedDiffusionConfig(),
                                 .radio = TestbedRadioConfig()},
                     &trace, {.regions = 2, .threads = threads});
  EXPECT_EQ(world.regions(), 2);
  std::vector<DiffusionNode*> sources;
  for (NodeId id : kIsiSourceNodes) {
    sources.push_back(world.node(id));
  }
  GridApps apps = StartApps(world.node(kIsiSinkNode), sources);

  RunDigest digest;
  digest.engine_events = world.RunUntil(5 * kMinute);
  digest.fingerprint = trace.fingerprint();
  digest.trace_events = trace.count();
  digest.bytes_sent = world.TotalDiffusionBytes();
  digest.distinct_events = apps.sink->distinct_events();
  digest.frames_handed_off = world.bridge().frames_handed_off();
  return digest;
}

TEST(ShardedWorldTest, IsiTestbedAcrossTwoRegionsIsThreadInvariant) {
  const RunDigest one = RunIsiTestbed(1);
  const RunDigest two = RunIsiTestbed(2);
  EXPECT_GT(one.frames_handed_off, 0u);  // traffic crossed the border
  EXPECT_GT(one.distinct_events, 0u);
  EXPECT_GT(one.bytes_sent, 0u);
  EXPECT_TRUE(one == two);
}

// The link matrix reads disk geometry, so more than one region refuses any
// other propagation model.
TEST(ShardedWorldTest, MultiRegionWorldNeedsDiskPropagation) {
#if defined(DIFFUSION_TEST_TSAN)
  GTEST_SKIP() << "death tests are unsupported under TSan";
#else
  const TestbedLayout layout = GridLayout(4, 4, 10.0, 12.0);
  EXPECT_DEATH(TestbedWorld(1, layout, std::make_unique<ExplicitTopology>(), NodeOptions{},
                            nullptr, {.regions = 2}),
               "more than one region needs a DiskPropagation");
#endif
}

// Accessors that exist for one region count abort under the other rather
// than hand out another region's simulator or a missing bridge.
TEST(ShardedWorldTest, AccessorsOfTheOtherRegionCountAbort) {
#if defined(DIFFUSION_TEST_TSAN)
  GTEST_SKIP() << "death tests are unsupported under TSan";
#else
  const TestbedLayout layout = GridLayout(4, 4, 10.0, 12.0);
  TestbedWorld one(1, layout, MakePropagation(layout, 0.98), NodeOptions{});
  EXPECT_DEATH(one.bridge(), "bridge\\(\\) needs more than one region");
  TestbedWorld two(1, layout, MakePropagation(layout, 0.98), NodeOptions{}, nullptr,
                   {.regions = 2});
  ASSERT_EQ(two.regions(), 2);
  EXPECT_DEATH(two.sim(), "need one region; use sim_of");
  EXPECT_DEATH(two.channel(), "need one region; use sim_of");
#endif
}

TEST(ShardedWorldTest, BridgeMetricsExposePerRegionClamps) {
  // The simulation radio's frames (130-450 us) are shorter than the 1 ms
  // window floor, so border deliveries clamp to the barrier; the bridge
  // publishes the totals and the per-region breakdown as globals.
  const TestbedLayout layout = GridLayout(6, 6, 10.0, 12.0);
  TestbedWorld world(9, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.radio = SimulationRadioConfig()}, nullptr, {.regions = 4});
  ASSERT_EQ(world.regions(), 4);

  GridApps apps = StartApps(world.node(1), {world.node(36), world.node(31)});
  world.RunUntil(30 * kSecond);

  MetricsRegistry registry;
  world.bridge().RegisterMetrics(&registry);
  const std::map<std::string, double> globals = registry.CollectGlobal();

  ASSERT_TRUE(globals.count("bridge.frames_handed_off"));
  ASSERT_TRUE(globals.count("bridge.deliveries_clamped"));
  EXPECT_EQ(globals.at("bridge.frames_handed_off"),
            static_cast<double>(world.bridge().frames_handed_off()));
  EXPECT_GT(world.bridge().deliveries_clamped(), 0u);

  double per_region_sum = 0;
  for (int region = 0; region < world.regions(); ++region) {
    const std::string key = "bridge.deliveries_clamped.r" + std::to_string(region);
    ASSERT_TRUE(globals.count(key)) << key;
    EXPECT_EQ(globals.at(key),
              static_cast<double>(world.bridge().deliveries_clamped_in(region)));
    per_region_sum += globals.at(key);
  }
  EXPECT_EQ(per_region_sum, globals.at("bridge.deliveries_clamped"));
  EXPECT_EQ(per_region_sum, static_cast<double>(world.bridge().deliveries_clamped()));
}

TEST(ShardedEngineTest, WindowsAdvanceAllRegions) {
  ShardedEngineConfig config;
  config.regions = 3;
  config.threads = 2;
  config.window = 10 * kMillisecond;
  config.seed = 1;
  ShardedEngine engine(config);
  ASSERT_EQ(engine.regions(), 3);

  std::atomic<int> fired{0};  // events run on different worker threads
  for (int region = 0; region < engine.regions(); ++region) {
    engine.region_sim(region).At(25 * kMillisecond, [&fired] { ++fired; });
  }
  engine.RunUntil(100 * kMillisecond);
  EXPECT_EQ(fired.load(), 3);
  EXPECT_GE(engine.windows_run(), 10u);
  EXPECT_EQ(engine.events_executed(), 3u);
  for (int region = 0; region < engine.regions(); ++region) {
    EXPECT_EQ(engine.region_sim(region).now(), 100 * kMillisecond);
  }
}

// An exception thrown by an event reaches RunUntil's caller from a worker's
// region as from the barrier thread's own share, with threads within the
// hardware threads and with more.
TEST(ShardedEngineTest, RegionExceptionReachesRunUntilCaller) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned threads : {2u, cores + 1}) {
    for (int thrower : {0, static_cast<int>(threads) - 1}) {  // a worker; the barrier thread
      SCOPED_TRACE(testing::Message() << "threads " << threads << " region " << thrower);
      ShardedEngineConfig config;
      config.regions = static_cast<int>(threads);
      config.threads = threads;
      config.window = 10 * kMillisecond;
      ShardedEngine engine(config);
      ASSERT_EQ(engine.threads(), threads);
      engine.region_sim(thrower).At(35 * kMillisecond,
                                    [] { throw std::runtime_error("region failed"); });
      EXPECT_THROW(engine.RunUntil(100 * kMillisecond), std::runtime_error);
      // Every other region finished the window [30 ms, 40 ms) first, and
      // the destructor still joins every worker.
      EXPECT_EQ(engine.region_sim(thrower).now(), 35 * kMillisecond);
      for (int region = 0; region < engine.regions(); ++region) {
        if (region != thrower) {
          EXPECT_EQ(engine.region_sim(region).now(), 40 * kMillisecond - 1);
        }
      }
    }
  }
}

// ---- idle-window skipping ----------------------------------------------------

// Records the barrier time of every DrainInto call (region 0's, one per
// executed barrier) and relays nothing.
class BarrierLog : public RegionCoupler {
 public:
  void DrainInto(int dst_region, SimTime barrier) override {
    if (dst_region == 0) {
      barriers.push_back(barrier);
    }
  }
  std::vector<SimTime> barriers;
};

TEST(ShardedEngineTest, IdleWindowsSkipBarriers) {
  ShardedEngineConfig config;
  config.regions = 4;
  config.threads = 2;
  config.window = 10 * kMillisecond;
  ShardedEngine engine(config);
  BarrierLog log;
  engine.set_coupler(&log);

  // Three events separated by hundreds of idle windows; each region records
  // the clock its event saw (one writer per slot).
  const SimTime at[] = {5 * kMillisecond, 523 * kMillisecond, 2001 * kMillisecond};
  SimTime seen[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    Simulator& sim = engine.region_sim(i);
    sim.At(at[i], [&sim, &seen, i] { seen[i] = sim.now(); });
  }
  const SimTime end = 3 * kSecond;
  engine.RunUntil(end);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[i], at[i]);
  }
  // [0, 3000 ms) is 300 grid windows, plus the one-tick window holding end.
  EXPECT_EQ(engine.windows_run(), 301u);
  // Only the windows holding an event, and the one holding end, ran.
  EXPECT_EQ(engine.barriers_run(), 4u);
  EXPECT_EQ(log.barriers, (std::vector<SimTime>{10 * kMillisecond, 530 * kMillisecond,
                                                2010 * kMillisecond, end + 1}));
  for (int region = 0; region < engine.regions(); ++region) {
    EXPECT_EQ(engine.region_sim(region).now(), end);
  }
}

TEST(ShardedEngineTest, SkipKeepsTheGridAcrossOffGridCalls) {
  ShardedEngineConfig config;
  config.regions = 2;
  config.threads = 2;
  config.window = 10 * kMillisecond;
  ShardedEngine engine(config);
  BarrierLog log;
  engine.set_coupler(&log);

  // The first call ends off the grid: its last window is [30 ms, 37 ms].
  engine.RunUntil(37 * kMillisecond);
  EXPECT_EQ(engine.windows_run(), 4u);
  EXPECT_EQ(engine.barriers_run(), 1u);
  for (int region = 0; region < engine.regions(); ++region) {
    EXPECT_EQ(engine.region_sim(region).now(), 37 * kMillisecond);
  }

  // Scheduled from outside at now(): before the next window's start, so
  // it must block the skip and run at its own time.
  Simulator& sim = engine.region_sim(1);
  SimTime seen = -1;
  sim.At(sim.now(), [&sim, &seen] { seen = sim.now(); });
  SimTime late_seen = -1;
  sim.At(150 * kMillisecond, [&sim, &late_seen] { late_seen = sim.now(); });
  const size_t barriers_before = log.barriers.size();
  engine.RunUntil(400 * kMillisecond);

  EXPECT_EQ(seen, 37 * kMillisecond);
  EXPECT_EQ(late_seen, 150 * kMillisecond);
  // The continuation grid starts at 37 ms + 1 tick: barriers at
  // 47.001 ms (outside event), 157.001 ms (the 150 ms event) and 400.001 ms
  // (the window holding end), never anywhere else.
  const std::vector<SimTime> continued(
      log.barriers.begin() + static_cast<std::ptrdiff_t>(barriers_before), log.barriers.end());
  EXPECT_EQ(continued, (std::vector<SimTime>{47 * kMillisecond + 1, 157 * kMillisecond + 1,
                                             400 * kMillisecond + 1}));
  EXPECT_EQ(engine.windows_run(), 4u + 37u);
  EXPECT_EQ(engine.barriers_run(), 4u);
  for (int region = 0; region < engine.regions(); ++region) {
    EXPECT_EQ(engine.region_sim(region).now(), 400 * kMillisecond);
  }
}

// A seeded cross-region workload for the skip differential. Each region
// runs one chain of events, mostly close together but with long idle gaps;
// some events post a message to another region, which the coupler delivers
// at max(barrier, send time + latency) as RegionBridge delivers frames.
class ChainWorkload : public RegionCoupler {
 public:
  struct Logged {
    SimTime when;
    int64_t label;
    bool operator==(const Logged&) const = default;
  };

  explicit ChainWorkload(std::vector<Simulator*> sims)
      : sims_(std::move(sims)),
        logs_(sims_.size()),
        outbox_(sims_.size(), std::vector<std::vector<Posted>>(sims_.size())) {}

  void Start() {
    for (size_t r = 0; r < sims_.size(); ++r) {
      const int region = static_cast<int>(r);
      sims_[r]->At(static_cast<SimTime>(r) * kMillisecond, [this, region] { Step(region, 0); });
    }
  }

  // Schedules an event into `region` at its now(), from outside any window.
  void Poke(int region) {
    Simulator* sim = sims_[static_cast<size_t>(region)];
    sim->At(sim->now(), [this, sim, region] {
      logs_[static_cast<size_t>(region)].push_back(Logged{sim->now(), -1});
    });
  }

  void DrainInto(int dst_region, SimTime barrier) override {
    Simulator* sim = sims_[static_cast<size_t>(dst_region)];
    for (auto& row : outbox_) {
      std::vector<Posted>& posted = row[static_cast<size_t>(dst_region)];
      for (const Posted& message : posted) {
        const int64_t label = message.label;
        sim->At(std::max(barrier, message.arrive), [this, sim, dst_region, label] {
          logs_[static_cast<size_t>(dst_region)].push_back(Logged{sim->now(), label});
        });
      }
      posted.clear();
    }
  }

  const std::vector<std::vector<Logged>>& logs() const { return logs_; }

 private:
  struct Posted {
    SimTime arrive;
    int64_t label;
  };

  void Step(int region, int64_t step) {
    Simulator* sim = sims_[static_cast<size_t>(region)];
    Rng& rng = sim->rng();
    const int64_t label = region * 1'000'000 + step;
    logs_[static_cast<size_t>(region)].push_back(Logged{sim->now(), label});
    const int regions = static_cast<int>(sims_.size());
    if (regions > 1 && rng.NextBool(0.3)) {
      int dst = static_cast<int>(rng.NextInt(0, regions - 2));
      dst += dst >= region ? 1 : 0;
      outbox_[static_cast<size_t>(region)][static_cast<size_t>(dst)].push_back(
          Posted{sim->now() + rng.NextInt(0, 3 * kMillisecond), label});
    }
    const SimDuration delay = rng.NextBool(0.7)
                                  ? rng.NextInt(1, 5 * kMillisecond)
                                  : rng.NextInt(50 * kMillisecond, 400 * kMillisecond);
    sim->After(delay, [this, region, step] { Step(region, step + 1); });
  }

  std::vector<Simulator*> sims_;
  // Per region, written only by that region's events.
  std::vector<std::vector<Logged>> logs_;
  // outbox_[src][dst]: written by src's events inside a window, drained on
  // the barrier thread.
  std::vector<std::vector<std::vector<Posted>>> outbox_;
};

// The pre-skip engine: plain Simulators stepped through every window of the
// grid, draining the coupler at every barrier.
class EveryWindowReference {
 public:
  EveryWindowReference(int regions, uint64_t seed, SimDuration window) : window_(window) {
    for (int r = 0; r < regions; ++r) {
      sims_.push_back(std::make_unique<Simulator>(RegionSeed(seed, r)));
    }
  }

  std::vector<Simulator*> sims() const {
    std::vector<Simulator*> out;
    for (const auto& sim : sims_) {
      out.push_back(sim.get());
    }
    return out;
  }

  void RunUntil(SimTime end, RegionCoupler* coupler) {
    while (cursor_ <= end) {
      const SimTime bound = std::min<SimTime>(cursor_ + window_, end + 1);
      for (const auto& sim : sims_) {
        sim->RunUntil(bound - 1);
      }
      for (int r = 0; r < static_cast<int>(sims_.size()); ++r) {
        coupler->DrainInto(r, bound);
      }
      cursor_ = bound;
    }
  }

 private:
  SimDuration window_;
  SimTime cursor_ = 0;
  std::vector<std::unique_ptr<Simulator>> sims_;
};

TEST(ShardedEngineTest, SkippingMatchesEveryWindowReference) {
  const int kRegions = 4;
  const SimDuration kWindow = 2 * kMillisecond;
  const SimTime kSplit = 1237 * kMillisecond + 500;  // off the window grid
  const SimTime kEnd = 5 * kSecond;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EveryWindowReference reference(kRegions, seed, kWindow);
    ChainWorkload expected(reference.sims());
    expected.Start();
    reference.RunUntil(kSplit, &expected);
    expected.Poke(2);
    reference.RunUntil(kEnd, &expected);
    size_t logged = 0;
    for (const auto& log : expected.logs()) {
      logged += log.size();
    }
    ASSERT_GT(logged, 100u);

    for (unsigned threads : {1u, 2u}) {
      ShardedEngineConfig config;
      config.regions = kRegions;
      config.threads = threads;
      config.window = kWindow;
      config.seed = seed;
      ShardedEngine engine(config);
      std::vector<Simulator*> sims;
      for (int r = 0; r < kRegions; ++r) {
        sims.push_back(&engine.region_sim(r));
      }
      ChainWorkload actual(sims);
      engine.set_coupler(&actual);
      actual.Start();
      engine.RunUntil(kSplit);
      actual.Poke(2);
      engine.RunUntil(kEnd);

      EXPECT_EQ(actual.logs(), expected.logs()) << "seed " << seed << " threads " << threads;
      EXPECT_LT(engine.barriers_run(), engine.windows_run());
      for (int r = 0; r < kRegions; ++r) {
        EXPECT_EQ(engine.region_sim(r).now(), kEnd);
      }
    }
  }
}

}  // namespace
}  // namespace diffusion
