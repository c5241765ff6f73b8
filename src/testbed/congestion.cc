#include "src/testbed/congestion.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/testbed/topology.h"
#include "src/trace/trace_writer.h"

namespace diffusion {
namespace {

// Well-behaved source ids stay below this; the flooder stamps its events
// above it so the sink can attribute arrivals without ambiguity.
constexpr int32_t kFlooderSourceId = 999;

}  // namespace

const char* CongestionScenarioName(CongestionScenario scenario) {
  switch (scenario) {
    case CongestionScenario::kLoadSweep:
      return "load_sweep";
    case CongestionScenario::kFlooder:
      return "flooder";
    case CongestionScenario::kFairness:
      return "fairness";
  }
  return "unknown";
}

bool CongestionScenarioFromName(const std::string& name, CongestionScenario* scenario) {
  if (name == "load_sweep") {
    *scenario = CongestionScenario::kLoadSweep;
    return true;
  }
  if (name == "flooder") {
    *scenario = CongestionScenario::kFlooder;
    return true;
  }
  if (name == "fairness") {
    *scenario = CongestionScenario::kFairness;
    return true;
  }
  return false;
}

TrafficPolicy ReferenceShapingPolicy() {
  TrafficPolicy policy;
  // B1: desynchronize originated sends. The wide data window also spreads
  // the sources' token-bucket phases apart, so under overload each source
  // admits a different subset of the (synchronized) event sequence and the
  // sink's coverage is the union.
  policy.jitter.enabled = true;
  policy.jitter.data_window = 450 * kMillisecond;
  policy.jitter.refresh_window = 300 * kMillisecond;
  // B2: small first ring (the testbed is ~5 hops; 8 spans it with margin),
  // refresh backoff once the ring is fully open and data still missing.
  policy.backoff.enabled = true;
  policy.backoff.initial_ttl = 8;
  // B4: shed exploratory refreshes early, evict low-priority frames for
  // control when the queue fills.
  policy.mac.queue.priority_drop = true;
  policy.mac.queue.high_watermark = 0.75;
  // B5: a loose anti-hog backstop. The bridge relay (node 20) legitimately
  // carries most of the network's transit bytes, so the budget must sit well
  // above fair share; the data bucket below is the binding limiter.
  policy.mac.airtime.enabled = true;
  policy.mac.airtime.budget_fraction = 0.25;
  // B3: bound data and refresh bytes per node; control is never throttled.
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
  // Writer first so it outlives the simulator (teardown may still trace).
  std::unique_ptr<TraceWriter> trace_writer;
  TraceSink* trace_sink = ResolveTraceSink(params.trace_sink, params.trace_out, &trace_writer);

  Simulator sim(params.seed);
  sim.set_trace_sink(trace_sink);

  const TestbedLayout layout = IsiTestbedLayout();
  Channel channel(&sim, MakePropagation(layout, params.link_delivery));

  DiffusionConfig dconfig;
  dconfig.forward_delay_jitter = 300 * kMillisecond;  // as in RunFig8
  const RadioConfig rconfig = TestbedRadioConfig();

  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : layout.node_ids) {
    nodes[id] = std::make_unique<DiffusionNode>(
        &sim, &channel, id,
        NodeOptions{.diffusion = dconfig, .radio = rconfig, .traffic = params.policy});
  }

  SurveillanceConfig sconfig;
  sconfig.event_interval = params.event_interval;
  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> filters;
  for (auto& [id, node] : nodes) {
    filters.push_back(std::make_unique<DuplicateSuppressionFilter>(
        node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
  }

  // Sinks: remember when each well-behaved event sequence first arrives.
  std::map<int64_t, SimTime> first_delivery;
  std::map<int64_t, SimTime> first_delivery_second;
  uint64_t flooder_arrivals = 0;
  const auto sink_callback = [&sim, &flooder_arrivals](std::map<int64_t, SimTime>* sink_map,
                                                       const AttributeVector& attrs) {
    const Attribute* seq = FindActual(attrs, kKeySequence);
    const Attribute* source = FindActual(attrs, kKeySourceId);
    if (seq == nullptr) {
      return;
    }
    if (source != nullptr && source->AsInt() == std::optional<int64_t>(kFlooderSourceId)) {
      ++flooder_arrivals;
      return;
    }
    if (std::optional<int64_t> value = seq->AsInt()) {
      sink_map->emplace(*value, sim.now());
    }
  };
  (void)nodes.at(kIsiSinkNode)
      ->Subscribe(SurveillanceInterestAttrs(sconfig), [&](const AttributeVector& attrs) {
        sink_callback(&first_delivery, attrs);
      });
  if (params.second_sink) {
    (void)nodes.at(kIsiUserNode)
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
        std::make_unique<SurveillanceSource>(nodes.at(id).get(), sconfig, static_cast<int32_t>(id)));
  }

  // The misbehaving node publishes the same task's data far above the agreed
  // rate. Its events carry kFlooderSourceId, so sink accounting can separate
  // collateral damage from the attack itself.
  std::unique_ptr<SurveillanceSource> flooder;
  if (params.flooder) {
    SurveillanceConfig flood_config = sconfig;
    flood_config.event_interval = params.flooder_interval;
    flooder = std::make_unique<SurveillanceSource>(nodes.at(kIsiSourceNodes[0]).get(),
                                                   flood_config, kFlooderSourceId);
  }

  // Sources start phase-staggered: the sensors observe the same event
  // sequence but report on offset duty phases (the duplicate-suppression
  // filters exist precisely because several sensors cover one event). The
  // offset is coprime-ish to the shaping layers' bucket periods, so under
  // overload each source's token bucket admits a different subset of the
  // sequence and the sinks see the union.
  const SimTime source_start = 5 * kSecond;
  for (size_t i = 0; i < sources.size(); ++i) {
    auto& source = sources[i];
    sim.At(source_start + static_cast<SimDuration>(i) * (700 * kMillisecond),
           [&source] { source->Start(); });
  }
  if (flooder != nullptr) {
    sim.At(source_start, [&flooder] { flooder->Start(); });
  }

  sim.RunUntil(params.end_at);

  // Event k is generated at source_start + k * event_interval (sources are
  // synchronized); count the ones generated inside the measurement window
  // [warmup, end - grace] and whether their first copy ever arrived.
  const SimTime window_end = params.end_at - 30 * kSecond;  // grace for in-flight events
  const auto delivered_in = [&](const std::map<int64_t, SimTime>& sink_map, uint64_t* possible) {
    uint64_t count = 0;
    *possible = 0;
    for (int64_t k = 0;; ++k) {
      const SimTime generated = source_start + k * params.event_interval;
      if (generated >= window_end) {
        break;
      }
      if (generated < params.warmup) {
        continue;
      }
      ++*possible;
      if (sink_map.contains(k)) {
        ++count;
      }
    }
    return count;
  };

  CongestionRunResult result;
  result.events_delivered = delivered_in(first_delivery, &result.events_possible);
  result.delivery = result.events_possible > 0 ? static_cast<double>(result.events_delivered) /
                                                     static_cast<double>(result.events_possible)
                                               : 0.0;
  if (params.second_sink) {
    uint64_t possible_second = 0;
    result.events_delivered_second = delivered_in(first_delivery_second, &possible_second);
    result.delivery_second =
        possible_second > 0 ? static_cast<double>(result.events_delivered_second) /
                                  static_cast<double>(possible_second)
                            : 0.0;
  }
  if (flooder != nullptr) {
    result.flooder_events_generated = flooder->events_generated();
    result.flooder_events_delivered = flooder_arrivals;
  }

  for (auto& [id, node] : nodes) {
    result.bytes_sent += static_cast<double>(node->stats().bytes_sent);
    result.transmits_jittered += node->stats().transmits_jittered;
    result.interest_scope_expansions += node->stats().interest_scope_expansions;
    result.refresh_backoffs += node->stats().refresh_backoffs;
    const MacStats& mac = node->radio().mac_stats();
    result.mac_drops_queue_full += mac.drops_queue_full;
    result.mac_drops_rate_limited += mac.drops_rate_limited;
    result.mac_drops_airtime += mac.drops_airtime;
    result.mac_priority_evictions += mac.priority_evictions;
  }
  return result;
}

}  // namespace diffusion
