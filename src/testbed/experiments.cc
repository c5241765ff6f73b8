#include "src/testbed/experiments.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/filters/counting_aggregation_filter.h"
#include "src/filters/geo_scope_filter.h"
#include "src/radio/shadowing.h"
#include "src/testbed/testbed_world.h"

namespace diffusion {

Fig8Result RunFig8(const Fig8Params& params) {
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
  DiffusionConfig dconfig = TestbedDiffusionConfig();
  dconfig.exploratory_every = params.exploratory_every;
  dconfig.variant = params.variant;
  RadioConfig rconfig = TestbedRadioConfig();
  rconfig.mac.duty_cycle = params.duty_cycle;
  TestbedWorld world(params.seed, layout, std::move(propagation),
                     NodeOptions{.diffusion = dconfig, .radio = rconfig}, params.trace_sink);
  Simulator& sim = world.sim();

  SurveillanceConfig sconfig;
  std::vector<std::unique_ptr<CountingAggregationFilter>> counting_filters;
  if (params.strategy == AggregationStrategy::kSuppression) {
    world.SuppressDuplicates(sconfig);
  } else if (params.strategy == AggregationStrategy::kCounting) {
    for (const auto& [id, node] : world.nodes()) {
      counting_filters.push_back(std::make_unique<CountingAggregationFilter>(
          node.get(), SurveillanceDataFilterAttrs(sconfig), 10, params.counting_window));
    }
  }

  SurveillanceSink sink(world.node(kIsiSinkNode), sconfig);
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (int i = 0; i < params.sources; ++i) {
    const NodeId id = kIsiSourceNodes[i];
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }

  sink.Start();
  for (auto& source : sources) {
    sim.At(kSourceStart, [&source] { source->Start(); });
  }

  uint64_t events_executed = sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = world.TotalDiffusionBytes();
  const size_t events_at_warmup = sink.distinct_events();

  events_executed += sim.RunUntil(params.warmup + params.duration);

  Fig8Result result;
  result.events_executed = events_executed;
  result.memory = world.Memory();
  result.diffusion_bytes = world.TotalDiffusionBytes() - bytes_at_warmup;
  result.distinct_events = sink.distinct_events() - events_at_warmup;
  result.possible_events = PossibleEvents(sconfig.event_interval, params.warmup,
                                          params.warmup + params.duration);
  result.delivery_rate =
      Ratio(static_cast<double>(result.distinct_events), result.possible_events);
  result.bytes_per_event =
      Ratio(static_cast<double>(result.diffusion_bytes), result.distinct_events);
  result.suppressed = world.TotalSuppressed();
  for (const auto& filter : counting_filters) {
    result.suppressed += filter->events_merged();
  }
  result.mean_latency_s = sink.first_copy_latency().mean();
  result.energy_per_event =
      Ratio(world.MeasuredEnergy(static_cast<double>(sim.now())), result.distinct_events);
  return result;
}

Fig9Result RunFig9(const Fig9Params& params) {
  const TestbedLayout layout = IsiTestbedLayout();
  // Audio and trigger publications are sparse (a few messages per minute):
  // their nodes run frequent exploratory rounds and a long reinforcement
  // hold to keep paths warm. Light sensors report every 2 s and keep the
  // paper's 1-in-10 exploratory cadence — anything more floods the network.
  DiffusionConfig sparse_config = TestbedDiffusionConfig();
  sparse_config.exploratory_every = 3;
  sparse_config.reinforcement_lifetime = 5 * kMinute;
  DiffusionConfig light_config = sparse_config;
  light_config.exploratory_every = 10;
  const RadioConfig rconfig = TestbedRadioConfig();
  const NodeId* const lights_end = kIsiLightNodes + params.lights;
  TestbedWorld world(
      params.seed, layout, MakePropagation(layout, params.link_delivery),
      [&](NodeId id) {
        const bool is_light = std::find(kIsiLightNodes, lights_end, id) != lights_end;
        return NodeOptions{.diffusion = is_light ? light_config : sparse_config,
                           .radio = rconfig};
      },
      params.trace_sink);
  Simulator& sim = world.sim();

  NestedQueryConfig nconfig;
  const std::vector<int32_t> light_ids(kIsiLightNodes, lights_end);
  QueryUser user(world.node(kIsiUserNode), nconfig, params.mode);
  AudioSensor audio(world.node(kIsiAudioNode), nconfig, params.mode, light_ids);
  std::vector<std::unique_ptr<LightSensor>> lights;
  for (const int32_t id : light_ids) {
    lights.push_back(
        std::make_unique<LightSensor>(world.node(static_cast<NodeId>(id)), nconfig, id));
  }

  audio.Start();
  user.Start();
  for (auto& light : lights) {
    light->Start();
  }

  sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = world.TotalDiffusionBytes();
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
  result.delivered_fraction =
      Ratio(static_cast<double>(result.delivered_events), result.possible_events);
  result.diffusion_bytes = world.TotalDiffusionBytes() - bytes_at_warmup;
  result.triggers_sent = user.triggers_sent();
  return result;
}

ScaleResult RunScaleExperiment(const ScaleParams& params) {
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

  DiffusionConfig dconfig;
  dconfig.exploratory_every = params.exploratory_every;
  RadioConfig rconfig = SimulationRadioConfig();
  rconfig.fragment_payload = params.message_bytes;
  TestbedWorld world(params.seed, layout, MakePropagation(layout, 0.98),
                     NodeOptions{.diffusion = dconfig, .radio = rconfig}, params.trace_sink);
  Simulator& sim = world.sim();

  SurveillanceConfig sconfig;
  sconfig.event_interval = params.event_interval;
  sconfig.message_bytes = params.message_bytes;
  if (params.suppression) {
    world.SuppressDuplicates(sconfig);
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
    subs.push_back(world.node(id)->Subscribe(
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
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }
  for (auto& source : sources) {
    sim.At(kSourceStart, [&source] { source->Start(); });
  }

  sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = world.TotalDiffusionBytes();
  const size_t events_at_warmup = distinct.size();
  sim.RunUntil(params.warmup + params.duration);

  ScaleResult result;
  const uint64_t bytes = world.TotalDiffusionBytes() - bytes_at_warmup;
  result.distinct_events = distinct.size() - events_at_warmup;
  const size_t possible = PossibleEvents(params.event_interval, params.warmup,
                                         params.warmup + params.duration);
  result.delivery_rate = Ratio(static_cast<double>(result.distinct_events), possible);
  result.bytes_per_event = Ratio(static_cast<double>(bytes), result.distinct_events);
  result.energy_per_event =
      Ratio(world.MeasuredEnergy(static_cast<double>(sim.now())), result.distinct_events);
  result.comm_energy_per_event = Ratio(world.CommunicationEnergy(), result.distinct_events);
  return result;
}

GeoResult RunGeoExperiment(const GeoParams& params) {
  const TestbedLayout layout = GridLayout(params.grid, params.grid, params.spacing,
                                          params.radio_range);
  TestbedWorld world(params.seed, layout, MakePropagation(layout, 0.95),
                     NodeOptions{.radio = TestbedRadioConfig()});
  Simulator& sim = world.sim();

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

  world.SuppressDuplicates(sconfig);
  std::vector<std::unique_ptr<GeoScopeFilter>> geo_filters;
  if (params.geo_scope) {
    for (const auto& [id, node] : world.nodes()) {
      geo_filters.push_back(std::make_unique<GeoScopeFilter>(
          node.get(), layout.positions.at(id), params.slack, 20));
    }
  }

  SurveillanceSink sink(world.node(sink_id), sconfig);
  SurveillanceSource src_a(world.node(source_a), sconfig, static_cast<int32_t>(source_a),
                           layout.positions.at(source_a).x, layout.positions.at(source_a).y);
  SurveillanceSource src_b(world.node(source_b), sconfig, static_cast<int32_t>(source_b),
                           layout.positions.at(source_b).x, layout.positions.at(source_b).y);

  sink.Start();
  sim.At(kSourceStart, [&] {
    src_a.Start();
    src_b.Start();
  });

  sim.RunUntil(params.warmup);
  const uint64_t bytes_at_warmup = world.TotalDiffusionBytes();
  const size_t events_at_warmup = sink.distinct_events();
  sim.RunUntil(params.warmup + params.duration);

  GeoResult result;
  const uint64_t bytes = world.TotalDiffusionBytes() - bytes_at_warmup;
  const size_t events = sink.distinct_events() - events_at_warmup;
  const size_t possible = PossibleEvents(sconfig.event_interval, params.warmup,
                                         params.warmup + params.duration);
  result.bytes_per_event = Ratio(static_cast<double>(bytes), events);
  result.delivery_rate = Ratio(static_cast<double>(events), possible);
  for (const auto& filter : geo_filters) {
    result.interests_pruned += filter->pruned();
  }
  return result;
}

}  // namespace diffusion
