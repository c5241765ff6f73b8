#include "cc/worlds.h"

#include <algorithm>
#include <utility>

#include "src/radio/energy.h"

namespace perfbench {
namespace {

using diffusion::Channel;
using diffusion::DiffusionNode;
using diffusion::NodeId;
using diffusion::SimDuration;
using diffusion::SimTime;
using diffusion::kSecond;

// Fig8Params and ShardedWorldParams both default to this link quality.
constexpr double kLinkDelivery = 0.98;
constexpr SimTime kFig8SourceStart = 5 * kSecond;

using NodeMap = std::map<NodeId, std::unique_ptr<DiffusionNode>>;

double Since(Clock::time_point* mark) {
  const Clock::time_point now = Clock::now();
  const double seconds = SecondsBetween(*mark, now);
  *mark = now;
  return seconds;
}

std::unique_ptr<diffusion::PropagationModel> MaybeCounting(
    std::unique_ptr<diffusion::PropagationModel> inner, bool count,
    std::vector<CountingPropagation*>* counters) {
  if (!count) {
    return inner;
  }
  auto counting = std::make_unique<CountingPropagation>(std::move(inner));
  counters->push_back(counting.get());
  return counting;
}

uint64_t TotalBytesSent(const NodeMap& nodes) {
  uint64_t total = 0;
  for (const auto& [id, node] : nodes) {
    total += node->stats().bytes_sent;
  }
  return total;
}

// Node-side counts; channel, bridge and engine fields are the caller's.
SimCounts NodeCounts(const NodeMap& nodes, const SurveillanceApps& apps) {
  SimCounts counts;
  for (const auto& [id, node] : nodes) {
    const diffusion::NodeStats& stats = node->stats();
    const diffusion::RadioStats& radio = node->radio().stats();
    const diffusion::MacStats& mac = node->radio().mac_stats();
    counts.mac_frames_sent += mac.frames_sent;
    counts.mac_drops +=
        mac.drops_queue_full + mac.drops_channel_busy + mac.drops_rate_limited + mac.drops_airtime;
    counts.fragments_sent += radio.fragments_sent;
    counts.fragments_received += radio.fragments_received;
    counts.fragments_dropped += radio.fragments_dropped;
    counts.messages_received += radio.messages_received;
    counts.messages_sent += stats.messages_sent;
    counts.bytes_sent += stats.bytes_sent;
    counts.messages_forwarded += stats.messages_forwarded;
    counts.duplicates_suppressed += stats.duplicates_suppressed;
    counts.reinforcements += stats.reinforcements_sent + stats.negative_reinforcements_sent;
  }
  for (const auto& filter : apps.filters) {
    counts.filter_passed += filter->passed();
    counts.filter_suppressed += filter->suppressed();
  }
  return counts;
}

void AddChannelCounts(const diffusion::ChannelStats& stats, SimCounts* counts) {
  counts->transmissions += stats.transmissions;
  counts->receptions_attempted += stats.receptions_attempted;
  counts->collisions += stats.collisions;
  counts->deliveries += stats.deliveries;
}

size_t TotalGradientEntries(const NodeMap& nodes) {
  size_t total = 0;
  for (const auto& [id, node] : nodes) {
    total += node->gradients().size();
  }
  return total;
}

uint64_t TotalMessagesReceived(const NodeMap& nodes) {
  uint64_t total = 0;
  for (const auto& [id, node] : nodes) {
    total += node->radio().stats().messages_received;
  }
  return total;
}

ReachSample SumReach(const std::vector<CountingPropagation*>& counters) {
  ReachSample sample;
  for (const CountingPropagation* counter : counters) {
    sample.reaches += counter->reaches();
    sample.busy_ns += counter->estimated_busy_ns();
  }
  return sample;
}

}  // namespace

// ---- testbed14 ---------------------------------------------------------------

Testbed14World::Testbed14World(const Testbed14Params& params) : params_(params) {
  Clock::time_point mark = Clock::now();
  const diffusion::TestbedLayout layout = diffusion::IsiTestbedLayout();
  std::vector<CountingPropagation*> counters;
  std::unique_ptr<diffusion::PropagationModel> propagation = MaybeCounting(
      diffusion::MakePropagation(layout, kLinkDelivery), params.count_reaches, &counters);
  counter_ = counters.empty() ? nullptr : counters.front();
  setup_.propagation_s = Since(&mark);

  sim_ = std::make_unique<diffusion::Simulator>(params.seed);
  if (params.trace_sink != nullptr) {
    sim_->set_trace_sink(params.trace_sink);
  }
  channel_ = std::make_unique<Channel>(sim_.get(), std::move(propagation));
  setup_.engine_s = Since(&mark);

  diffusion::DiffusionConfig dconfig;
  dconfig.forward_delay_jitter = 300 * diffusion::kMillisecond;
  const diffusion::RadioConfig rconfig = diffusion::TestbedRadioConfig();
  for (NodeId id : layout.node_ids) {
    nodes_[id] = std::make_unique<DiffusionNode>(
        sim_.get(), channel_.get(), id,
        diffusion::NodeOptions{.diffusion = dconfig, .radio = rconfig});
  }
  setup_.nodes_s = Since(&mark);

  const diffusion::SurveillanceConfig sconfig;
  for (auto& [id, node] : nodes_) {
    apps_.filters.push_back(std::make_unique<diffusion::DuplicateSuppressionFilter>(
        node.get(), diffusion::SurveillanceDataFilterAttrs(sconfig), 10));
  }
  apps_.sinks.push_back(std::make_unique<diffusion::SurveillanceSink>(
      nodes_.at(diffusion::kIsiSinkNode).get(), sconfig));
  for (NodeId id : diffusion::kIsiSourceNodes) {
    apps_.sources.push_back(std::make_unique<diffusion::SurveillanceSource>(
        nodes_.at(id).get(), sconfig, static_cast<int32_t>(id)));
  }
  apps_.sinks.front()->Start();
  for (const auto& source : apps_.sources) {
    diffusion::SurveillanceSource* started = source.get();
    sim_->At(kFig8SourceStart, [started] { started->Start(); });
  }
  setup_.apps_s = Since(&mark);
}

std::vector<SimTime> Testbed14World::StepEnds(SimDuration slice) const {
  std::vector<SimTime> ends;
  for (SimTime end = slice; end < params_.warmup; end += slice) {
    ends.push_back(end);
  }
  ends.push_back(params_.warmup);
  for (SimTime end = params_.warmup + slice; end < horizon(); end += slice) {
    ends.push_back(end);
  }
  ends.push_back(horizon());
  return ends;
}

uint64_t Testbed14World::Step(SimTime end) {
  const uint64_t events = sim_->RunUntil(end);
  events_ += events;
  if (end == params_.warmup) {
    bytes_at_warmup_ = TotalBytesSent(nodes_);
    delivered_at_warmup_ = apps_.sinks.front()->distinct_events();
  }
  return events;
}

SimOutcome Testbed14World::Outcome() const {
  // Event numbers first generated inside [warmup, horizon), as RunFig8
  // counts its possible events.
  const SimDuration interval = diffusion::SurveillanceConfig{}.event_interval;
  const auto first_at_or_after = [interval](SimTime t) {
    return (t - kFig8SourceStart + interval - 1) / interval;
  };
  SimOutcome outcome;
  outcome.delivered = apps_.sinks.front()->distinct_events() - delivered_at_warmup_;
  outcome.possible = static_cast<uint64_t>(
      std::max<int64_t>(0, first_at_or_after(horizon()) - first_at_or_after(params_.warmup)));
  outcome.bytes = TotalBytesSent(nodes_) - bytes_at_warmup_;
  return outcome;
}

SimCounts Testbed14World::Counts() const {
  SimCounts counts = NodeCounts(nodes_, apps_);
  counts.events = events_;
  AddChannelCounts(channel_->stats(), &counts);
  return counts;
}

diffusion::Fig8Result Testbed14World::Fig8() const {
  const SimOutcome outcome = Outcome();
  diffusion::Fig8Result result;
  result.events_executed = events_;
  result.diffusion_bytes = outcome.bytes;
  result.distinct_events = outcome.delivered;
  result.possible_events = outcome.possible;
  result.delivery_rate = outcome.delivery_ratio();
  result.bytes_per_event = outcome.bytes_per_event();
  for (const auto& filter : apps_.filters) {
    result.suppressed += filter->suppressed();
  }
  result.mean_latency_s = apps_.sinks.front()->first_copy_latency().mean();
  // RunFig8's measured §6.1 energy: listen/receive/send time at 1:2:2.
  const diffusion::EnergyRatios ratios;
  const double elapsed = static_cast<double>(sim_->now());
  double energy = 0.0;
  for (const auto& [id, node] : nodes_) {
    const double tx = static_cast<double>(node->radio().time_sending());
    const double rx = static_cast<double>(node->radio().stats().time_receiving);
    const double listen = std::max(0.0, node->radio().awake_fraction() * elapsed - tx - rx);
    energy += ratios.listen * listen + ratios.receive * rx + ratios.send * tx;
  }
  energy /= static_cast<double>(kSecond);
  result.energy_per_event =
      result.distinct_events > 0 ? energy / static_cast<double>(result.distinct_events) : 0.0;
  return result;
}

size_t Testbed14World::GradientEntries() const { return TotalGradientEntries(nodes_); }

uint64_t Testbed14World::MessagesReceived() const { return TotalMessagesReceived(nodes_); }

ReachSample Testbed14World::Reach() const {
  return counter_ == nullptr ? ReachSample{} : SumReach({counter_});
}

// ---- field10k ----------------------------------------------------------------

SimOutcome FieldOutcome(const SurveillanceApps& apps, uint64_t bytes_sent) {
  uint64_t generated = 0;
  for (const auto& source : apps.sources) {
    generated = std::max(generated, source->events_generated());
  }
  SimOutcome outcome;
  for (const auto& sink : apps.sinks) {
    outcome.delivered += sink->distinct_events();
  }
  outcome.possible = generated * apps.sinks.size();
  outcome.bytes = bytes_sent;
  return outcome;
}

Field10kWorld::Field10kWorld(const Field10kParams& params) : params_(params) {
  Clock::time_point mark = Clock::now();
  const diffusion::TestbedLayout layout =
      diffusion::GridLayout(static_cast<size_t>(params.side), static_cast<size_t>(params.side),
                            kFieldSpacing, kFieldRange);
  // ShardedWorld's throwaway geometry for the link matrix.
  const std::unique_ptr<diffusion::DiskPropagation> geometry =
      diffusion::MakePropagation(layout, kLinkDelivery);
  setup_.propagation_s = Since(&mark);

  map_ = std::make_unique<diffusion::RegionMap>(layout.node_ids, layout.positions, params.regions);
  const diffusion::RadioConfig radio = diffusion::SimulationRadioConfig();
  matrix_ = std::make_unique<diffusion::RegionLinkMatrix>(*map_, *geometry, radio.mac);
  diffusion::ShardedEngineConfig config;
  config.regions = map_->regions();
  config.threads = params.threads;
  config.window = std::max(matrix_->min_frame_airtime(), 1 * diffusion::kMillisecond);
  config.seed = params.seed;
  engine_ = std::make_unique<diffusion::ShardedEngine>(config);
  std::vector<Channel*> channel_ptrs;
  double region_propagation_s = 0.0;
  for (int region = 0; region < map_->regions(); ++region) {
    Clock::time_point built = Clock::now();
    std::unique_ptr<diffusion::PropagationModel> propagation = MaybeCounting(
        diffusion::MakePropagation(layout, kLinkDelivery), params.count_reaches, &counters_);
    region_propagation_s += Since(&built);
    channels_.push_back(
        std::make_unique<Channel>(&engine_->region_sim(region), std::move(propagation)));
    channel_ptrs.push_back(channels_.back().get());
  }
  bridge_ = std::make_unique<diffusion::RegionBridge>(matrix_.get(), std::move(channel_ptrs));
  engine_->set_coupler(bridge_.get());
  setup_.engine_s = Since(&mark) - region_propagation_s;
  setup_.propagation_s += region_propagation_s;

  for (int region = 0; region < map_->regions(); ++region) {
    for (NodeId id : map_->nodes_in(region)) {
      nodes_[id] = std::make_unique<DiffusionNode>(
          &engine_->region_sim(region), channels_[static_cast<size_t>(region)].get(), id,
          diffusion::NodeOptions{.diffusion = diffusion::DiffusionConfig{}, .radio = radio});
    }
  }
  setup_.nodes_s = Since(&mark);

  if (params.trace_sink != nullptr) {
    engine_->set_merged_trace_sink(params.trace_sink);
  }
  AttachFieldApps(*this, params.side, &apps_);
  setup_.apps_s = Since(&mark);
}

std::vector<SimTime> Field10kWorld::StepEnds(SimDuration granularity) const {
  std::vector<SimTime> ends;
  for (SimTime next = granularity; next < params_.horizon; next += granularity) {
    ends.push_back(next - 1);
  }
  ends.push_back(params_.horizon);
  return ends;
}

SimOutcome Field10kWorld::Outcome() const {
  return FieldOutcome(apps_, TotalBytesSent(nodes_));
}

SimCounts Field10kWorld::Counts() const {
  SimCounts counts = NodeCounts(nodes_, apps_);
  counts.events = engine_->events_executed();
  counts.windows = engine_->windows_run();
  for (const auto& channel : channels_) {
    AddChannelCounts(channel->stats(), &counts);
  }
  counts.border_frames = bridge_->frames_handed_off();
  counts.deliveries_clamped = bridge_->deliveries_clamped();
  return counts;
}

size_t Field10kWorld::PendingEvents() const {
  size_t total = 0;
  for (int region = 0; region < engine_->regions(); ++region) {
    total += engine_->region_sim(region).scheduler().pending();
  }
  return total;
}

size_t Field10kWorld::GradientEntries() const { return TotalGradientEntries(nodes_); }

uint64_t Field10kWorld::MessagesReceived() const { return TotalMessagesReceived(nodes_); }

ReachSample Field10kWorld::Reach() const { return SumReach(counters_); }

}  // namespace perfbench
