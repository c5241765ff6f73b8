#include "src/testbed/congestion.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/testbed/testbed_world.h"

namespace diffusion {
namespace {

// Well-behaved source ids stay below this; the flooder stamps its events
// above it so the sink can attribute arrivals without ambiguity.
constexpr int32_t kFlooderSourceId = 999;
constexpr SimDuration kFlooderInterval = 250 * kMillisecond;
constexpr double kLinkDelivery = 0.98;  // per-link delivery probability
constexpr SimTime kWarmup = 60 * kSecond;  // measurement starts here

}  // namespace

TrafficPolicy ReferenceShapingPolicy() {
  TrafficPolicy policy;
  // B1: desynchronize originated sends. The wide data window also spreads
  // the sources' token-bucket phases apart, so under overload each source
  // admits a different subset of the (synchronized) event sequence and the
  // sink's coverage is the union.
  policy.jitter.enabled = true;
  policy.jitter.data_window = 450 * kMillisecond;
  policy.jitter.refresh_window = 300 * kMillisecond;
  // B3: bound data and refresh bytes per node; control has no bucket.
  // The data bucket polices ingress only: metering transit at every relay
  // compounds into heavy end-to-end loss for multi-hop flows, while
  // origination-only metering throttles a runaway source at its own MAC.
  policy.mac.data.enabled = true;
  policy.mac.data.rate_bytes_per_s = 45.0;
  policy.mac.data.burst_bytes = 440.0;
  policy.mac.data.originated_only = true;
  policy.mac.refresh.enabled = true;
  policy.mac.refresh.rate_bytes_per_s = 40.0;
  policy.mac.refresh.burst_bytes = 360.0;
  return policy;
}

CongestionRunResult RunCongestionScenario(const CongestionRunParams& params) {
  const TestbedLayout layout = IsiTestbedLayout();
  TestbedWorld world(params.seed, layout, MakePropagation(layout, kLinkDelivery),
                     NodeOptions{.diffusion = TestbedDiffusionConfig(),
                                 .radio = TestbedRadioConfig(),
                                 .traffic = params.policy},
                     params.trace_sink);
  Simulator& sim = world.sim();

  SurveillanceConfig sconfig;
  sconfig.event_interval = params.event_interval;
  world.SuppressDuplicates(sconfig);

  // Sinks: remember when each well-behaved event sequence first arrives.
  std::map<int64_t, SimTime> first_delivery;
  std::map<int64_t, SimTime> first_delivery_second;
  const auto sink_callback = [&sim](std::map<int64_t, SimTime>* sink_map,
                                    const AttributeVector& attrs) {
    const Attribute* seq = FindActual(attrs, kKeySequence);
    const Attribute* source = FindActual(attrs, kKeySourceId);
    if (seq == nullptr) {
      return;
    }
    if (source != nullptr && source->AsInt() == std::optional<int64_t>(kFlooderSourceId)) {
      return;
    }
    if (std::optional<int64_t> value = seq->AsInt()) {
      sink_map->emplace(*value, sim.now());
    }
  };
  (void)world.node(kIsiSinkNode)
      ->Subscribe(SurveillanceInterestAttrs(sconfig), [&](const AttributeVector& attrs) {
        sink_callback(&first_delivery, attrs);
      });
  if (params.second_sink) {
    (void)world.node(kIsiUserNode)
        ->Subscribe(SurveillanceInterestAttrs(sconfig), [&](const AttributeVector& attrs) {
          sink_callback(&first_delivery_second, attrs);
        });
  }

  // Well-behaved sources, the Figure 7 source nodes first. Beyond four, any
  // other node except the sinks and the bridge relay can sense too (the
  // paper's sensors are homogeneous); redundant sensing of the same event
  // sequence is the workload the duplicate-suppression filters exist for.
  // When a flooder is active it takes the first source node and the
  // well-behaved workload shifts to the following ones.
  std::vector<NodeId> source_candidates(std::begin(kIsiSourceNodes), std::end(kIsiSourceNodes));
  for (NodeId id : layout.node_ids) {
    if (id == kIsiSinkNode || id == kIsiUserNode || id == kIsiAudioNode ||
        std::find(source_candidates.begin(), source_candidates.end(), id) !=
            source_candidates.end()) {
      continue;
    }
    source_candidates.push_back(id);
  }
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  const int source_base = params.flooder ? 1 : 0;
  const int max_sources = static_cast<int>(source_candidates.size()) - source_base;
  const int source_count = std::min(std::max(params.sources, 1), max_sources);
  for (int i = 0; i < source_count; ++i) {
    const NodeId id = source_candidates[static_cast<size_t>(source_base + i)];
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }

  // The misbehaving node publishes the same task's data far above the agreed
  // rate. Its events carry kFlooderSourceId, so sink accounting can separate
  // collateral damage from the attack itself.
  std::unique_ptr<SurveillanceSource> flooder;
  if (params.flooder) {
    SurveillanceConfig flood_config = sconfig;
    flood_config.event_interval = kFlooderInterval;
    flooder = std::make_unique<SurveillanceSource>(world.node(kIsiSourceNodes[0]), flood_config,
                                                   kFlooderSourceId);
  }

  // Sources start phase-staggered: the sensors observe the same event
  // sequence but report on offset duty phases (the duplicate-suppression
  // filters exist precisely because several sensors cover one event). The
  // offset is coprime-ish to the shaping layers' bucket periods, so under
  // overload each source's token bucket admits a different subset of the
  // sequence and the sinks see the union.
  for (size_t i = 0; i < sources.size(); ++i) {
    auto& source = sources[i];
    sim.At(kSourceStart + static_cast<SimDuration>(i) * (700 * kMillisecond),
           [&source] { source->Start(); });
  }
  if (flooder != nullptr) {
    sim.At(kSourceStart, [&flooder] { flooder->Start(); });
  }

  sim.RunUntil(params.end_at);

  // Count the well-behaved events generated inside the measurement window
  // [kWarmup, end - grace] and whether their first copy ever arrived.
  const SimTime window_end = params.end_at - 30 * kSecond;  // grace for in-flight events
  const WindowDelivery primary =
      DeliveredInWindow(first_delivery, params.event_interval, kWarmup, window_end);
  CongestionRunResult result;
  result.events_delivered = primary.delivered;
  result.delivery = primary.rate();
  if (params.second_sink) {
    result.delivery_second =
        DeliveredInWindow(first_delivery_second, params.event_interval, kWarmup, window_end)
            .rate();
  }
  if (flooder != nullptr) {
    result.flooder_events_generated = flooder->events_generated();
  }

  for (const auto& [id, node] : world.nodes()) {
    result.bytes_sent += static_cast<double>(node->stats().bytes_sent);
    result.transmits_jittered += node->stats().transmits_jittered;
    const MacStats& mac = node->radio().mac_stats();
    result.mac_drops_queue_full += mac.drops_queue_full;
    result.mac_drops_rate_limited += mac.drops_rate_limited;
  }
  return result;
}

}  // namespace diffusion
