#include "src/testbed/experiments.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/core/node.h"
#include "src/filters/counting_aggregation_filter.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/filters/geo_scope_filter.h"
#include "src/radio/energy.h"
#include "src/radio/shadowing.h"
#include "src/testbed/topology.h"
#include "src/trace/trace_writer.h"

namespace diffusion {
namespace {

// Sum of diffusion-level bytes transmitted by all nodes ("bytes sent from
// all diffusion modules", Figure 8).
uint64_t TotalDiffusionBytes(const std::map<NodeId, std::unique_ptr<DiffusionNode>>& nodes) {
  uint64_t total = 0;
  for (const auto& [id, node] : nodes) {
    total += node->stats().bytes_sent;
  }
  return total;
}

// Number of distinct event sequence numbers first generated inside
// [window_start, window_end), for sources started at `source_start` emitting
// every `interval`.
size_t PossibleEvents(SimTime source_start, SimDuration interval, SimTime window_start,
                      SimTime window_end) {
  const int64_t first = (window_start - source_start + interval - 1) / interval;
  const int64_t last = (window_end - source_start + interval - 1) / interval;
  return static_cast<size_t>(last > first ? last - first : 0);
}

// Network-wide relative radio energy over a run of `elapsed`: measured
// listen/receive/send times at power ratios 1:2:2 (the §6.1 model, fed with
// observations instead of assumptions), in units of second-equivalents.
double MeasuredEnergy(const std::map<NodeId, std::unique_ptr<DiffusionNode>>& nodes,
                      double elapsed) {
  const EnergyRatios ratios;
  double energy = 0.0;
  for (const auto& [id, node] : nodes) {
    DiffusionNode* mutable_node = node.get();
    const double tx = static_cast<double>(mutable_node->radio().time_sending());
    const double rx = static_cast<double>(mutable_node->radio().stats().time_receiving);
    const double listen =
        std::max(0.0, mutable_node->radio().awake_fraction() * elapsed - tx - rx);
    energy += ratios.listen * listen + ratios.receive * rx + ratios.send * tx;
  }
  return energy / static_cast<double>(kSecond);
}

}  // namespace

Fig8Result RunFig8(const Fig8Params& params) {
  // The writer outlives the simulator (declared first) so events emitted
  // during teardown still have a live sink.
  std::unique_ptr<TraceWriter> trace_writer;
  TraceSink* trace_sink = ResolveTraceSink(params.trace_sink, params.trace_out, &trace_writer);
  Simulator sim(params.seed);
  if (trace_sink != nullptr) {
    sim.set_trace_sink(trace_sink);
  }
  const TestbedLayout layout = IsiTestbedLayout();
  std::unique_ptr<PropagationModel> propagation;
  if (params.shadowing) {
    ShadowingConfig sconfig;
    // The layout's designed links run up to radio_range; placing the 0 dB
    // point 30% beyond gives them the positive margin a deployed testbed's
    // working links actually have, leaving the shadowing term to create the
    // gray-zone and asymmetric outliers.
    sconfig.reference_range = layout.radio_range * 1.3;
    sconfig.shadowing_sigma_db = params.shadowing_sigma_db;
    auto shadowed = std::make_unique<ShadowingPropagation>(sconfig, params.seed * 1315423911ULL);
    for (const auto& [id, position] : layout.positions) {
      shadowed->SetPosition(id, position);
    }
    propagation = std::move(shadowed);
  } else {
    propagation = MakePropagation(layout, params.link_delivery);
  }
  Channel channel(&sim, std::move(propagation));

  DiffusionConfig dconfig;
  dconfig.exploratory_every = params.exploratory_every;
  dconfig.variant = params.variant;
  // ~5 message airtimes at 13 kb/s: enough spread to interleave concurrent
  // flood re-broadcasts from hidden terminals.
  dconfig.forward_delay_jitter = 300 * kMillisecond;
  RadioConfig rconfig = TestbedRadioConfig();
  rconfig.mac.duty_cycle = params.duty_cycle;

  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : layout.node_ids) {
    nodes[id] = std::make_unique<DiffusionNode>(&sim, &channel, id, NodeOptions{.diffusion = dconfig, .radio = rconfig});
  }

  SurveillanceConfig sconfig;
  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> filters;
  std::vector<std::unique_ptr<CountingAggregationFilter>> counting_filters;
  if (params.strategy == AggregationStrategy::kSuppression) {
    // "All nodes were configured with aggregation filters" (§6.1).
    for (auto& [id, node] : nodes) {
      filters.push_back(std::make_unique<DuplicateSuppressionFilter>(
          node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
    }
  } else if (params.strategy == AggregationStrategy::kCounting) {
    for (auto& [id, node] : nodes) {
      counting_filters.push_back(std::make_unique<CountingAggregationFilter>(
          node.get(), SurveillanceDataFilterAttrs(sconfig), 10, params.counting_window));
    }
  }

  SurveillanceSink sink(nodes.at(kIsiSinkNode).get(), sconfig);
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (int i = 0; i < params.sources; ++i) {
    const NodeId id = kIsiSourceNodes[i];
    sources.push_back(
        std::make_unique<SurveillanceSource>(nodes.at(id).get(), sconfig, static_cast<int32_t>(id)));
  }

  sink.Start();
  const SimTime source_start = 5 * kSecond;
  for (auto& source : sources) {
    sim.At(source_start, [&source] { source->Start(); });
  }

  uint64_t events_executed = sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = TotalDiffusionBytes(nodes);
  const size_t events_at_warmup = sink.distinct_events();

  events_executed += sim.RunUntil(params.warmup + params.duration);

  Fig8Result result;
  result.events_executed = events_executed;
  result.diffusion_bytes = TotalDiffusionBytes(nodes) - bytes_at_warmup;
  result.distinct_events = sink.distinct_events() - events_at_warmup;
  result.possible_events = PossibleEvents(source_start, sconfig.event_interval, params.warmup,
                                          params.warmup + params.duration);
  result.delivery_rate = result.possible_events > 0
                             ? static_cast<double>(result.distinct_events) /
                                   static_cast<double>(result.possible_events)
                             : 0.0;
  result.bytes_per_event = result.distinct_events > 0
                               ? static_cast<double>(result.diffusion_bytes) /
                                     static_cast<double>(result.distinct_events)
                               : 0.0;
  for (const auto& filter : filters) {
    result.suppressed += filter->suppressed();
  }
  for (const auto& filter : counting_filters) {
    result.suppressed += filter->events_merged();
  }
  result.mean_latency_s = sink.first_copy_latency().mean();

  const double energy = MeasuredEnergy(nodes, static_cast<double>(sim.now()));
  result.energy_per_event =
      result.distinct_events > 0
          ? energy / static_cast<double>(result.distinct_events)
          : 0.0;
  return result;
}

Fig9Result RunFig9(const Fig9Params& params) {
  std::unique_ptr<TraceWriter> trace_writer;
  TraceSink* trace_sink = ResolveTraceSink(params.trace_sink, params.trace_out, &trace_writer);
  Simulator sim(params.seed);
  if (trace_sink != nullptr) {
    sim.set_trace_sink(trace_sink);
  }
  const TestbedLayout layout = IsiTestbedLayout();
  Channel channel(&sim, MakePropagation(layout, params.link_delivery));

  // Audio and trigger publications are sparse (a few messages per minute):
  // their nodes run frequent exploratory rounds and a long reinforcement
  // hold to keep paths warm. Light sensors report every 2 s and keep the
  // paper's 1-in-10 exploratory cadence — anything more floods the network.
  DiffusionConfig sparse_config;
  sparse_config.exploratory_every = 3;
  sparse_config.reinforcement_lifetime = 5 * kMinute;
  sparse_config.forward_delay_jitter = 300 * kMillisecond;
  DiffusionConfig light_config;
  light_config.exploratory_every = 10;
  light_config.reinforcement_lifetime = 5 * kMinute;
  light_config.forward_delay_jitter = 300 * kMillisecond;
  const RadioConfig rconfig = TestbedRadioConfig();

  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : layout.node_ids) {
    bool is_light = false;
    for (int i = 0; i < params.lights; ++i) {
      if (kIsiLightNodes[i] == id) {
        is_light = true;
      }
    }
    nodes[id] = std::make_unique<DiffusionNode>(&sim, &channel, id,
                                                NodeOptions{.diffusion = is_light ? light_config : sparse_config,
                                                            .radio = rconfig});
  }

  NestedQueryConfig nconfig;
  std::vector<int32_t> light_ids;
  for (int i = 0; i < params.lights; ++i) {
    light_ids.push_back(static_cast<int32_t>(kIsiLightNodes[i]));
  }
  QueryUser user(nodes.at(kIsiUserNode).get(), nconfig, params.mode);
  AudioSensor audio(nodes.at(kIsiAudioNode).get(), nconfig, params.mode, light_ids);
  std::vector<std::unique_ptr<LightSensor>> lights;
  for (int i = 0; i < params.lights; ++i) {
    const NodeId id = kIsiLightNodes[i];
    lights.push_back(std::make_unique<LightSensor>(nodes.at(id).get(), nconfig,
                                                   static_cast<int32_t>(id)));
  }

  audio.Start();
  user.Start();
  for (auto& light : lights) {
    light->Start();
  }

  sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = TotalDiffusionBytes(nodes);
  sim.RunUntil(params.warmup + params.duration);

  // Count light-change events whose toggle epoch falls inside the window.
  const int32_t begin_epoch =
      static_cast<int32_t>((params.warmup + nconfig.toggle_period - 1) / nconfig.toggle_period);
  const int32_t end_epoch =
      static_cast<int32_t>((params.warmup + params.duration) / nconfig.toggle_period);

  Fig9Result result;
  result.possible_events =
      static_cast<size_t>(end_epoch - begin_epoch) * static_cast<size_t>(params.lights);
  result.delivered_events = user.DeliveredInEpochRange(begin_epoch, end_epoch);
  result.delivered_fraction = result.possible_events > 0
                                  ? static_cast<double>(result.delivered_events) /
                                        static_cast<double>(result.possible_events)
                                  : 0.0;
  result.diffusion_bytes = TotalDiffusionBytes(nodes) - bytes_at_warmup;
  result.triggers_sent = user.triggers_sent();
  return result;
}

ScaleResult RunScaleExperiment(const ScaleParams& params) {
  std::unique_ptr<TraceWriter> trace_writer;
  TraceSink* trace_sink = ResolveTraceSink(params.trace_sink, params.trace_out, &trace_writer);
  Simulator sim(params.seed);
  if (trace_sink != nullptr) {
    sim.set_trace_sink(trace_sink);
  }

  // Draw random layouts until connected.
  TestbedLayout layout;
  Rng layout_rng(params.seed * 7919 + 3);
  for (int attempt = 0; attempt < 64; ++attempt) {
    layout = RandomLayout(params.nodes, params.field_size, params.field_size,
                          params.radio_range, &layout_rng);
    bool connected = true;
    for (NodeId id : layout.node_ids) {
      if (HopDistance(layout, layout.node_ids.front(), id) < 0) {
        connected = false;
        break;
      }
    }
    if (connected) {
      break;
    }
  }

  Channel channel(&sim, MakePropagation(layout, 0.98));
  DiffusionConfig dconfig;
  dconfig.exploratory_every = params.exploratory_every;
  RadioConfig rconfig = SimulationRadioConfig();
  rconfig.fragment_payload = params.message_bytes;

  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : layout.node_ids) {
    nodes[id] = std::make_unique<DiffusionNode>(&sim, &channel, id, NodeOptions{.diffusion = dconfig, .radio = rconfig});
  }

  SurveillanceConfig sconfig;
  sconfig.event_interval = params.event_interval;
  sconfig.message_bytes = params.message_bytes;

  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> filters;
  if (params.suppression) {
    for (auto& [id, node] : nodes) {
      filters.push_back(std::make_unique<DuplicateSuppressionFilter>(
          node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
    }
  }

  // Pick sources and sinks at random, disjointly.
  Rng pick_rng(params.seed * 31 + 1);
  std::vector<NodeId> shuffled = layout.node_ids;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(pick_rng.NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
  // `nodes` comes from the command line and may be below sources + sinks:
  // keep at least one node for the sinks and never slice past the layout.
  const size_t source_count =
      std::min(static_cast<size_t>(std::max(params.sources, 0)), shuffled.size() - 1);
  const size_t sink_count =
      std::min(static_cast<size_t>(std::max(params.sinks, 0)), shuffled.size() - source_count);
  const auto sources_end = shuffled.begin() + static_cast<ptrdiff_t>(source_count);
  std::vector<NodeId> source_ids(shuffled.begin(), sources_end);
  std::vector<NodeId> sink_ids(sources_end, sources_end + static_cast<ptrdiff_t>(sink_count));

  // Sinks share one distinct-event set (the union of what any sink saw).
  std::set<int32_t> distinct;
  std::vector<SubscriptionHandle> subs;
  for (NodeId id : sink_ids) {
    subs.push_back(nodes.at(id)->Subscribe(
        SurveillanceInterestAttrs(sconfig), [&distinct](const AttributeVector& attrs) {
          const Attribute* seq = FindActual(attrs, kKeySequence);
          if (seq != nullptr) {
            if (std::optional<int64_t> v = seq->AsInt()) {
              distinct.insert(static_cast<int32_t>(*v));
            }
          }
        }));
  }

  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (NodeId id : source_ids) {
    sources.push_back(
        std::make_unique<SurveillanceSource>(nodes.at(id).get(), sconfig, static_cast<int32_t>(id)));
  }
  const SimTime source_start = 5 * kSecond;
  for (auto& source : sources) {
    sim.At(source_start, [&source] { source->Start(); });
  }

  sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = TotalDiffusionBytes(nodes);
  const size_t events_at_warmup = distinct.size();
  sim.RunUntil(params.warmup + params.duration);

  ScaleResult result;
  const uint64_t bytes = TotalDiffusionBytes(nodes) - bytes_at_warmup;
  result.distinct_events = distinct.size() - events_at_warmup;
  const size_t possible = PossibleEvents(source_start, params.event_interval, params.warmup,
                                         params.warmup + params.duration);
  result.delivery_rate =
      possible > 0 ? static_cast<double>(result.distinct_events) / static_cast<double>(possible)
                   : 0.0;
  result.bytes_per_event =
      result.distinct_events > 0
          ? static_cast<double>(bytes) / static_cast<double>(result.distinct_events)
          : 0.0;
  const double energy = MeasuredEnergy(nodes, static_cast<double>(sim.now()));
  result.energy_per_event =
      result.distinct_events > 0
          ? energy / static_cast<double>(result.distinct_events)
          : 0.0;
  const EnergyRatios ratios;
  double comm_energy = 0.0;
  for (auto& [id, node] : nodes) {
    comm_energy += ratios.send * static_cast<double>(node->radio().time_sending()) +
                   ratios.receive * static_cast<double>(node->radio().stats().time_receiving);
  }
  comm_energy /= static_cast<double>(kSecond);
  result.comm_energy_per_event =
      result.distinct_events > 0
          ? comm_energy / static_cast<double>(result.distinct_events)
          : 0.0;
  return result;
}

GeoResult RunGeoExperiment(const GeoParams& params) {
  Simulator sim(params.seed);
  const TestbedLayout layout = GridLayout(params.grid, params.grid, params.spacing,
                                          params.radio_range);
  Channel channel(&sim, MakePropagation(layout, 0.95));

  DiffusionConfig dconfig;
  const RadioConfig rconfig = TestbedRadioConfig();
  std::map<NodeId, std::unique_ptr<DiffusionNode>> nodes;
  for (NodeId id : layout.node_ids) {
    nodes[id] = std::make_unique<DiffusionNode>(&sim, &channel, id, NodeOptions{.diffusion = dconfig, .radio = rconfig});
  }

  // Sink in the (0, 0) corner; sources in the far end of the same row band.
  const NodeId sink_id = 1;
  const NodeId source_a = static_cast<NodeId>(params.grid);      // (grid-1, row 0)
  const NodeId source_b = static_cast<NodeId>(params.grid - 1);  // (grid-2, row 0)

  SurveillanceConfig sconfig;
  sconfig.use_region = true;
  sconfig.x_min = static_cast<double>(params.grid - 2) * params.spacing - 1.0;
  sconfig.x_max = static_cast<double>(params.grid - 1) * params.spacing + 1.0;
  sconfig.y_min = -1.0;
  sconfig.y_max = 1.0;
  sconfig.sink_x = 0.0;
  sconfig.sink_y = 0.0;

  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> suppression;
  std::vector<std::unique_ptr<GeoScopeFilter>> geo_filters;
  for (auto& [id, node] : nodes) {
    suppression.push_back(std::make_unique<DuplicateSuppressionFilter>(
        node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
    if (params.geo_scope) {
      geo_filters.push_back(std::make_unique<GeoScopeFilter>(
          node.get(), layout.positions.at(id), params.slack, 20));
    }
  }

  SurveillanceSink sink(nodes.at(sink_id).get(), sconfig);
  SurveillanceSource src_a(nodes.at(source_a).get(), sconfig, static_cast<int32_t>(source_a),
                           layout.positions.at(source_a).x, layout.positions.at(source_a).y);
  SurveillanceSource src_b(nodes.at(source_b).get(), sconfig, static_cast<int32_t>(source_b),
                           layout.positions.at(source_b).x, layout.positions.at(source_b).y);

  sink.Start();
  const SimTime source_start = 5 * kSecond;
  sim.At(source_start, [&] {
    src_a.Start();
    src_b.Start();
  });

  sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = TotalDiffusionBytes(nodes);
  const size_t events_at_warmup = sink.distinct_events();
  sim.RunUntil(params.warmup + params.duration);

  GeoResult result;
  const uint64_t bytes = TotalDiffusionBytes(nodes) - bytes_at_warmup;
  const size_t events = sink.distinct_events() - events_at_warmup;
  const size_t possible = PossibleEvents(source_start, sconfig.event_interval, params.warmup,
                                         params.warmup + params.duration);
  result.bytes_per_event =
      events > 0 ? static_cast<double>(bytes) / static_cast<double>(events) : 0.0;
  result.delivery_rate =
      possible > 0 ? static_cast<double>(events) / static_cast<double>(possible) : 0.0;
  for (const auto& filter : geo_filters) {
    result.interests_pruned += filter->pruned();
  }
  return result;
}

}  // namespace diffusion
