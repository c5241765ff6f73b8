// The §5.1/§6.1 surveillance scenario on the reconstructed ISI testbed
// (Figure 7): four overlapping sensors detect the same events; duplicate-
// suppression filters aggregate the reports in-network on their way to the
// sink at node 28. Prints live traffic accounting so the aggregation effect
// is visible.
//
// Build & run:   ./build/examples/surveillance_aggregation [--no-suppression]

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/testbed/topology.h"

using namespace diffusion;

int main(int argc, char** argv) {
  bool suppression = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-suppression") == 0) {
      suppression = false;
    }
  }

  Simulator sim(17);
  const TestbedLayout layout = IsiTestbedLayout();
  Channel channel(&sim, MakePropagation(layout, 0.98));

  DiffusionConfig dconfig;
  dconfig.forward_delay_jitter = 300 * kMillisecond;
  const RadioConfig rconfig = TestbedRadioConfig();
  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : layout.node_ids) {
    nodes[id] = std::make_unique<DiffusionNode>(
        &sim, &channel, id, NodeOptions{.diffusion = dconfig, .radio = rconfig});
  }

  SurveillanceConfig sconfig;
  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> filters;
  if (suppression) {
    for (auto& [id, node] : nodes) {
      filters.push_back(std::make_unique<DuplicateSuppressionFilter>(
          node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
    }
  }

  SurveillanceSink sink(nodes.at(kIsiSinkNode).get(), sconfig);
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (NodeId id : kIsiSourceNodes) {
    sources.push_back(std::make_unique<SurveillanceSource>(nodes.at(id).get(), sconfig,
                                                           static_cast<int32_t>(id)));
  }

  std::printf("Surveillance on the 14-node testbed: sink at node %u, sources at 25/16/22/13,\n",
              kIsiSinkNode);
  std::printf("one 112-byte event per 6 s, suppression filters %s.\n\n",
              suppression ? "ON at every node" : "OFF");

  sink.Start();
  sim.After(5 * kSecond, [&sources] {
    for (auto& source : sources) {
      source->Start();
    }
  });

  uint64_t last_bytes = 0;
  for (int minute = 1; minute <= 10; ++minute) {
    sim.RunUntil(static_cast<SimDuration>(minute) * kMinute);
    uint64_t total_bytes = 0;
    uint64_t suppressed = 0;
    for (auto& [id, node] : nodes) {
      total_bytes += node->stats().bytes_sent;
    }
    for (auto& filter : filters) {
      suppressed += filter->suppressed();
    }
    std::printf("t=%2d min  events@sink=%3zu  diffusion-bytes=%7llu (+%llu)  suppressed=%llu\n",
                minute, sink.distinct_events(),
                static_cast<unsigned long long>(total_bytes),
                static_cast<unsigned long long>(total_bytes - last_bytes),
                static_cast<unsigned long long>(suppressed));
    last_bytes = total_bytes;
  }

  const double bytes_per_event =
      sink.distinct_events() > 0 ? static_cast<double>(last_bytes) / sink.distinct_events() : 0;
  std::printf("\n%.0f bytes sent per distinct event. Re-run with --no-suppression to see the\n"
              "unaggregated cost (Figure 8's comparison).\n",
              bytes_per_event);
  return 0;
}
