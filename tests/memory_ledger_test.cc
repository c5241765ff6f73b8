// The byte ledger against the heap it claims to explain: tests/live_heap.cc
// counts the bytes this binary holds live, so a test can compare what a
// world's MemoryLedger reports with what building and running the world
// really left on the heap.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/surveillance.h"
#include "src/testbed/testbed_world.h"
#include "src/testbed/topology.h"
#include "tests/live_heap.h"

namespace diffusion {
namespace {

NodeId GridId(int side, int row, int col) { return static_cast<NodeId>(row * side + col) + 1; }

// A 40x40 field in 4 regions with one sink and four sources a few hops out,
// run for a few simulated seconds: the ledger must explain 80-105% of the
// bytes the world and its applications hold live at the end.
TEST(MemoryLedgerTest, ExplainsTheLiveHeapOfAShardedWorld) {
  if (!LiveHeapCounted()) {
    GTEST_SKIP() << "the sanitizer's allocator replaces operator new";
  }
  constexpr int kSide = 40;
  const TestbedLayout layout = GridLayout(kSide, kSide, 10.0, 12.0);
  const int64_t before = LiveHeapBytes();
  TestbedWorld world(11, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.radio = SimulationRadioConfig()}, nullptr, {.regions = 4});
  ASSERT_GT(world.regions(), 1);
  const SurveillanceConfig config;
  const auto at = [](int row, int col) { return GridId(kSide, row, col); };
  SurveillanceSink sink(world.node(at(20, 20)), config);
  sink.Start();
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  int32_t source_id = 1;
  for (const NodeId id : {at(17, 20), at(23, 20), at(20, 17), at(20, 23)}) {
    sources.push_back(std::make_unique<SurveillanceSource>(world.node(id), config, source_id++));
    SurveillanceSource* source = sources.back().get();
    world.sim_of(id).At(1 * kSecond, [source] { source->Start(); });
  }
  world.RunUntil(10 * kSecond);
  ASSERT_GT(sink.distinct_events(), 0u);

  const double live = static_cast<double>(LiveHeapBytes() - before);
  const MemoryLedger ledger = world.Memory();
  const double total = static_cast<double>(ledger.total());
  EXPECT_GE(total, 0.80 * live) << "ledger " << total << " B of " << live << " B live";
  EXPECT_LE(total, 1.05 * live) << "ledger " << total << " B of " << live << " B live";
  // Nobody adds a filter and only the five application nodes subscribe.
  EXPECT_GT(ledger.match_indexes, 0u);
  EXPECT_LT(ledger.match_indexes, ledger.total() / 100);
}

// The gauges read the same ledger, one per row, computed when collected.
TEST(MemoryLedgerTest, GaugesReportEachRow) {
  const TestbedLayout layout = GridLayout(6, 6, 10.0, 12.0);
  TestbedWorld world(3, layout, MakePropagation(layout, 1.0),
                     NodeOptions{.radio = SimulationRadioConfig()});
  MetricsRegistry registry;
  world.RegisterMemoryGauges(&registry);
  world.RunUntil(2 * kSecond);
  const std::map<std::string, double> gauges = registry.CollectGlobal();
  const std::vector<std::pair<std::string, size_t>> rows = MemoryRows(world.Memory());
  ASSERT_EQ(gauges.size(), rows.size());
  for (const auto& [name, bytes] : rows) {
    EXPECT_EQ(gauges.at("memory." + name + "_bytes"), static_cast<double>(bytes)) << name;
  }
  EXPECT_GE(gauges.at("memory.nodes_bytes"), 36.0 * sizeof(DiffusionNode));
  EXPECT_EQ(gauges.at("memory.match_indexes_bytes"), 0.0);  // no filter, no subscription
}

}  // namespace
}  // namespace diffusion
