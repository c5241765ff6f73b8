#include "src/core/node.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>

#include "src/core/message_body.h"
#include "src/naming/matching.h"
#include "src/radio/energy.h"
#include "src/util/logging.h"
#include "src/util/memory_bytes.h"

namespace diffusion {
namespace {

// `index`, built on first use.
MatchIndex& Built(std::unique_ptr<MatchIndex>* index) {
  if (*index == nullptr) {
    *index = std::make_unique<MatchIndex>(kKeyClass);
  }
  return **index;
}

// Heap bytes of an index built on first use: the object and what it holds.
size_t IndexBytes(const std::unique_ptr<MatchIndex>& index) {
  return index == nullptr ? 0 : sizeof(MatchIndex) + index->MemoryBytes();
}

}  // namespace

// ---- FilterApi ----

NodeId FilterApi::node_id() const { return node_->id(); }

SimTime FilterApi::now() const { return node_->sim_->now(); }

void FilterApi::SendMessage(Message message, FilterHandle handle) {
  auto it = node_->filters_.find(handle);
  if (it == node_->filters_.end()) {
    // Stale re-injection: the handle was never issued or has been removed
    // (typically a filter re-injecting after removing itself). Count and
    // trace it, then fall through to the core so the message is not lost.
    ++node_->stats_.stale_filter_reinjections;
    if (node_->sim_->tracing()) {
      node_->sim_->Trace(TraceEvent{node_->sim_->now(), TraceEventKind::kStaleFilterReinjected,
                                    node_->id_, kBroadcastId, message.PacketId(),
                                    static_cast<int64_t>(handle.value())});
    }
    node_->CoreProcess(message);
    return;
  }
  node_->DispatchToChain(std::move(message), it->second.priority);
}

void FilterApi::SendMessageToNext(Message message) { node_->CoreProcess(message); }

void FilterApi::SendToNeighbor(Message message, NodeId neighbor) {
  message.next_hop = neighbor;
  node_->TransmitMessage(message);
}

uint32_t FilterApi::NewOriginSeq() { return node_->NextSeq(); }

GradientTable& FilterApi::gradients() { return node_->gradients_; }

const std::vector<NodeId>& FilterApi::Neighbors() const { return node_->Neighbors(); }

// ---- DiffusionNode ----

DiffusionNode::DiffusionNode(Simulator* sim, Channel* channel, NodeId id, NodeOptions options)
    : sim_(sim),
      id_(id),
      config_(options.diffusion),
      traffic_(options.traffic),
      radio_(sim, channel, id, options.EffectiveRadio()),
      filter_api_(this),
      seen_packets_(kDataCacheSize),
      rng_(sim->rng().Fork()) {
  radio_.SetReceiveCallback(
      [this](NodeId from, const WireBody& body) { OnRadioReceive(from, body); });
  gradients_.SetExpiryObserver([this](const InterestEntry& entry, const Gradient& gradient) {
    (void)entry;
    if (sim_->tracing()) {
      sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kGradientExpired, id_,
                             gradient.neighbor, 0, gradient.reinforced ? 1 : 0});
    }
  });
}

DiffusionNode::~DiffusionNode() {
  for (auto& [handle, subscription] : subscriptions_) {
    if (subscription.refresh_event != kInvalidEventId) {
      sim_->Cancel(subscription.refresh_event);
    }
    if (subscription.duration_event != kInvalidEventId) {
      sim_->Cancel(subscription.duration_event);
    }
  }
  for (const PendingTransmit& pending : pending_transmits_) {
    sim_->Cancel(pending.event);
  }
}

SubscriptionHandle DiffusionNode::Subscribe(AttributeSet attrs, DataCallback callback) {
  Subscription subscription;
  subscription.handle = SubscriptionHandle{next_handle_++};
  subscription.attrs = std::move(attrs);
  subscription.callback = std::move(callback);

  // A subscription whose class formal matches "class IS interest" is a
  // subscription *for subscriptions* (§4.1): it watches interests arriving at
  // this node and does not flood an interest of its own.
  const Attribute class_is_interest = ClassIs(kClassInterest);
  for (const Attribute& attr : subscription.attrs) {
    if (attr.key() == kKeyClass && attr.IsFormal() && attr.MatchesActual(class_is_interest)) {
      subscription.local_only = true;
      break;
    }
  }

  subscription.interest_attrs = subscription.attrs;
  if (!subscription.local_only && FindActual(subscription.interest_attrs, kKeyClass) == nullptr) {
    // "An implicit 'class IS interest' attribute is added to identify this
    // message as an interest" (§3.2).
    subscription.interest_attrs.push_back(ClassIs(kClassInterest));
  }

  const SubscriptionHandle handle = subscription.handle;
  auto [it, inserted] = subscriptions_.emplace(handle, std::move(subscription));
  // Index after emplacing: the entry points into the map node (stable).
  const bool indexed = Built(&subscription_index_).Insert(handle.value(), 0, &it->second.attrs);
  assert(indexed);  // handle values are never reused
  (void)indexed;
  if (!it->second.local_only) {
    FloodInterest(it->second);
    ScheduleRefresh(handle);
    // "duration IS ..." bounds how long the query lasts (§3.2): stop
    // refreshing and drop the subscription when it elapses.
    if (const Attribute* duration = FindActual(it->second.interest_attrs, kKeyDuration)) {
      if (std::optional<int64_t> ms = duration->AsInt()) {
        if (*ms > 0) {
          it->second.duration_event =
              sim_->After(*ms * kMillisecond, [this, handle] { (void)Unsubscribe(handle); });
        }
      }
    }
  }
  return handle;
}

ApiResult DiffusionNode::Unsubscribe(SubscriptionHandle handle) {
  auto it = subscriptions_.find(handle);
  if (it == subscriptions_.end()) {
    return ApiResult::kUnknownHandle;
  }
  if (it->second.refresh_event != kInvalidEventId) {
    sim_->Cancel(it->second.refresh_event);
  }
  if (it->second.duration_event != kInvalidEventId) {
    sim_->Cancel(it->second.duration_event);
  }
  const AttributeSet interest_attrs = it->second.interest_attrs;
  const bool local_only = it->second.local_only;
  // Erase by id alone: the index's position map finds the entry even if the
  // attributes were mutated while indexed (the old re-classification path
  // could silently miss and leave a dangling entry).
  const bool erased = subscription_index_->Erase(handle.value());
  assert(erased);  // every live subscription is indexed
  (void)erased;
  subscriptions_.erase(it);
  if (!local_only) {
    // Keep the local entry if another subscription still uses the same
    // interest; otherwise let it go (remote gradients decay on their own).
    bool still_used = false;
    for (const auto& [other_handle, other] : subscriptions_) {
      if (!other.local_only && ExactMatch(other.interest_attrs, interest_attrs)) {
        still_used = true;
        break;
      }
    }
    if (!still_used) {
      gradients_.RemoveLocal(interest_attrs);
    }
  }
  return ApiResult::kOk;
}

PublicationHandle DiffusionNode::Publish(AttributeSet attrs) {
  Publication publication;
  publication.handle = PublicationHandle{next_handle_++};
  publication.attrs = std::move(attrs);
  if (FindActual(publication.attrs, kKeyClass) == nullptr) {
    publication.attrs.push_back(ClassIs(kClassData));
  }
  const PublicationHandle handle = publication.handle;
  publications_.emplace(handle, std::move(publication));
  return handle;
}

ApiResult DiffusionNode::Unpublish(PublicationHandle handle) {
  return publications_.erase(handle) > 0 ? ApiResult::kOk : ApiResult::kUnknownHandle;
}

ApiResult DiffusionNode::Send(PublicationHandle handle, const AttributeVector& extra_attrs) {
  auto it = publications_.find(handle);
  if (it == publications_.end()) {
    return ApiResult::kUnknownHandle;
  }
  if (!alive_) {
    return ApiResult::kNodeDead;
  }
  Publication& publication = it->second;

  Message message;
  message.attrs = publication.attrs;
  message.attrs.Append(extra_attrs);

  gradients_.Expire(sim_->now());
  const std::vector<InterestEntry*> entries = gradients_.MatchData(message.attrs);
  if (entries.empty()) {
    // "If there are no active subscriptions, published data does not leave
    // the node" (§4.1).
    return ApiResult::kNoMatchingInterest;
  }

  // A source without any reinforced path is back in the "initial data
  // message" state (§3.1): its data goes out exploratory so the path can be
  // (re-)established — this also self-heals after a lost reinforcement.
  // One-phase pull has no exploratory phase at all.
  bool exploratory = false;
  if (config_.variant == DiffusionVariant::kTwoPhasePull) {
    bool has_reinforced_path = false;
    bool remote_demand = false;
    for (const InterestEntry* entry : entries) {
      if (entry->HasReinforcedGradient()) {
        has_reinforced_path = true;
      }
      if (!entry->gradients.empty()) {
        remote_demand = true;
      }
    }
    exploratory = config_.exploratory_every <= 1 ||
                  publication.send_count % static_cast<uint64_t>(config_.exploratory_every) == 0 ||
                  (remote_demand && !has_reinforced_path);
  }
  ++publication.send_count;

  message.type = exploratory ? MessageType::kExploratoryData : MessageType::kData;
  message.origin = id_;
  message.origin_seq = NextSeq();
  message.ttl = config_.flood_ttl;
  ++stats_.data_originated;
  DispatchToChain(std::move(message), std::numeric_limits<int32_t>::max());
  return ApiResult::kOk;
}

FilterHandle DiffusionNode::AddFilter(AttributeSet attrs, int16_t priority,
                                      FilterCallback callback) {
  Filter filter;
  filter.handle = FilterHandle{next_handle_++};
  filter.attrs = std::move(attrs);
  filter.priority = priority;
  filter.callback = std::move(callback);
  const FilterHandle handle = filter.handle;
  auto [it, inserted] = filters_.emplace(handle, std::move(filter));
  const bool indexed =
      Built(&filter_index_).Insert(handle.value(), priority, &it->second.attrs);
  assert(indexed);  // handle values are never reused
  (void)indexed;
  return handle;
}

ApiResult DiffusionNode::RemoveFilter(FilterHandle handle) {
  auto it = filters_.find(handle);
  if (it == filters_.end()) {
    return ApiResult::kUnknownHandle;
  }
  const bool erased = filter_index_->Erase(handle.value());
  assert(erased);  // every live filter is indexed
  (void)erased;
  filters_.erase(it);
  return ApiResult::kOk;
}

NodeMemory DiffusionNode::MemoryBytes() const {
  return NodeMemory{
      .gradients = gradients_.MemoryBytes(),
      .data_cache = seen_packets_.MemoryBytes(),
      .match_indexes = IndexBytes(filter_index_) + IndexBytes(subscription_index_),
      .other = MapBytes(subscriptions_) + MapBytes(publications_) + MapBytes(filters_) +
               VectorBytes(neighbors_) + VectorBytes(pending_transmits_),
      .radio = radio_.MemoryBytes(),
  };
}

void DiffusionNode::RegisterMetrics(MetricsRegistry* registry) {
  registry->RegisterCounter(id_, "diffusion.messages_sent",
                            [this] { return static_cast<double>(stats_.messages_sent); });
  registry->RegisterCounter(id_, "diffusion.bytes_sent",
                            [this] { return static_cast<double>(stats_.bytes_sent); });
  registry->RegisterCounter(id_, "diffusion.interests_originated",
                            [this] { return static_cast<double>(stats_.interests_originated); });
  registry->RegisterCounter(id_, "diffusion.data_originated",
                            [this] { return static_cast<double>(stats_.data_originated); });
  registry->RegisterCounter(id_, "diffusion.messages_forwarded",
                            [this] { return static_cast<double>(stats_.messages_forwarded); });
  registry->RegisterCounter(id_, "diffusion.data_delivered_local",
                            [this] { return static_cast<double>(stats_.data_delivered_local); });
  registry->RegisterCounter(id_, "diffusion.duplicates_suppressed",
                            [this] { return static_cast<double>(stats_.duplicates_suppressed); });
  registry->RegisterCounter(id_, "diffusion.decode_failures",
                            [this] { return static_cast<double>(stats_.decode_failures); });
  registry->RegisterCounter(id_, "diffusion.reinforcements_sent",
                            [this] { return static_cast<double>(stats_.reinforcements_sent); });
  registry->RegisterCounter(id_, "diffusion.negative_reinforcements_sent", [this] {
    return static_cast<double>(stats_.negative_reinforcements_sent);
  });
  registry->RegisterCounter(id_, "diffusion.stale_filter_reinjections", [this] {
    return static_cast<double>(stats_.stale_filter_reinjections);
  });
  registry->RegisterCounter(id_, "diffusion.transmits_jittered",
                            [this] { return static_cast<double>(stats_.transmits_jittered); });
  registry->RegisterGauge(id_, "diffusion.gradient_entries",
                          [this] { return static_cast<double>(gradients_.size()); });
  // §6.1 energy model evaluated over the whole run so far.
  registry->RegisterGauge(id_, "energy.relative", [this] {
    const SimDuration window = std::max<SimDuration>(sim_->now(), 1);
    const TimeShares shares = SharesFromStats(radio_.stats(), radio_.time_sending(), window);
    return TotalEnergy(radio_.awake_fraction(), EnergyRatios{}, shares);
  });
  radio_.RegisterMetrics(registry);
}

void DiffusionNode::Kill() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  radio_.Kill();
  // Cancel everything this node has in the scheduler. Cancellation is lazy
  // (heap entries are compacted when dead entries outnumber live ones), so a
  // mid-burst kill releases the cancelled callbacks' captured messages
  // without an O(n) queue rebuild per event.
  for (const PendingTransmit& pending : pending_transmits_) {
    sim_->Cancel(pending.event);
  }
  pending_transmits_.clear();
  for (auto& [handle, subscription] : subscriptions_) {
    if (subscription.refresh_event != kInvalidEventId) {
      sim_->Cancel(subscription.refresh_event);
      subscription.refresh_event = kInvalidEventId;
    }
    // duration_event stays: a query's lifetime keeps elapsing while the
    // node is down, exactly as the subscribing application intended.
  }
}

void DiffusionNode::Revive() {
  if (alive_) {
    return;
  }
  alive_ = true;
  radio_.Revive();
  for (auto& [handle, subscription] : subscriptions_) {
    if (!subscription.local_only && subscription.refresh_event == kInvalidEventId) {
      ScheduleRefresh(handle);
    }
  }
}

void DiffusionNode::Reboot() {
  Kill();  // no-op when already dead; otherwise cancels pending events
  gradients_.Clear();
  seen_packets_.Clear();
  neighbors_.clear();
  first_neighbor_count_ = 0;
  alive_ = true;
  radio_.Revive();
  // The application's boot path re-installs its tasks: every flooding
  // subscription re-announces its interest immediately and falls back onto
  // the normal refresh cadence.
  for (auto& [handle, subscription] : subscriptions_) {
    if (!subscription.local_only) {
      FloodInterest(subscription);
      ScheduleRefresh(handle);
    }
  }
}

void DiffusionNode::OnRadioReceive(NodeId from, const WireBody& body) {
  if (!alive_) {
    return;
  }
  const auto first_end = first_neighbors_.begin() + first_neighbor_count_;
  if (std::find(first_neighbors_.begin(), first_end, from) == first_end) {
    if (auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), from);
        it == neighbors_.end() || *it != from) {
      neighbors_.insert(it, from);
      if (first_neighbor_count_ < first_neighbors_.size()) {
        first_neighbors_[first_neighbor_count_++] = from;
      }
    }
  }
  if (const auto* structured = dynamic_cast<const MessageBody*>(&body)) {
    // Copying the message is cheap: the attribute storage is shared
    // copy-on-write, carrying the sender's cached hashes to this hop. Reset
    // the link-layer context to what Deserialize would have left (the body
    // still holds the *sender's* next_hop).
    Message message = structured->message();
    message.next_hop = kBroadcastId;
    ReceiveDecoded(from, std::move(message));
    return;
  }
  // Bytes from outside this engine (micro nodes, raw radios, frames from
  // another region) are decoded and checked like any outside input.
  std::vector<uint8_t> bytes;
  bytes.reserve(body.wire_size());
  body.AppendBytes(&bytes);
  std::optional<Message> message = Message::Deserialize(bytes);
  if (!message.has_value()) {
    ++stats_.decode_failures;
    return;
  }
  ReceiveDecoded(from, std::move(*message));
}

void DiffusionNode::ReceiveDecoded(NodeId from, Message message) {
  message.last_hop = from;
  if (sim_->tracing()) {
    TraceEventKind kind = TraceEventKind::kDataReceived;
    int64_t value = 0;
    switch (message.type) {
      case MessageType::kInterest:
        kind = TraceEventKind::kInterestReceived;
        break;
      case MessageType::kExploratoryData:
        kind = TraceEventKind::kDataReceived;
        value = 1;
        break;
      case MessageType::kData:
        kind = TraceEventKind::kDataReceived;
        break;
      case MessageType::kPositiveReinforcement:
        kind = TraceEventKind::kReinforcementReceived;
        value = 1;
        break;
      case MessageType::kNegativeReinforcement:
        kind = TraceEventKind::kReinforcementReceived;
        value = -1;
        break;
    }
    sim_->Trace(TraceEvent{sim_->now(), kind, id_, from, message.PacketId(), value});
  }
  gradients_.Expire(sim_->now());
  DispatchToChain(std::move(message), std::numeric_limits<int32_t>::max());
}

void DiffusionNode::DispatchToChain(Message message, int32_t below_priority) {
  if (filters_.empty()) {
    CoreProcess(message);  // no chain: the core is the only element
    return;
  }
  // Winner selection over index candidates only; ties break toward the
  // lowest handle, matching the old ascending full-chain scan.
  bool found = false;
  int32_t best_priority = 0;
  uint32_t best_id = 0;
  filter_index_->ForEachCandidate(message.attrs, [&](const MatchIndexEntry& entry) {
    if (entry.priority >= below_priority) {
      return;
    }
    if (found && (entry.priority < best_priority ||
                  (entry.priority == best_priority && entry.id >= best_id))) {
      return;
    }
    // Filters trigger on a one-way match: the filter's formals must be
    // satisfied by the message's actuals. (A message's own formals — e.g. an
    // interest's comparisons — don't constrain which filters see it.)
    if (OneWayMatch(*entry.attrs, message.attrs)) {
      found = true;
      best_priority = entry.priority;
      best_id = entry.id;
    }
  });
  if (!found) {
    CoreProcess(message);
    return;
  }
  // Copy the callback: it may remove its own filter while running.
  FilterCallback callback = filters_.find(FilterHandle{best_id})->second.callback;
  callback(message, filter_api_);
}

void DiffusionNode::CoreProcess(Message& message) {
  switch (message.type) {
    case MessageType::kInterest:
      ProcessInterest(message);
      break;
    case MessageType::kData:
    case MessageType::kExploratoryData:
      ProcessData(message);
      break;
    case MessageType::kPositiveReinforcement:
      ProcessPositiveReinforcement(message);
      break;
    case MessageType::kNegativeReinforcement:
      ProcessNegativeReinforcement(message);
      break;
  }
}

void DiffusionNode::ProcessInterest(Message& message) {
  const SimTime now = sim_->now();
  const SimTime expires = now + kGradientLifetime;

  // Task-aware interest handling: remember the interest, set up a gradient
  // toward whoever sent it. Gradient setup happens for *every* copy of a
  // flooded interest (each neighbor's re-broadcast), so gradients form
  // toward all neighbors; only re-flooding is duplicate-suppressed.
  InterestEntry& entry = gradients_.InsertOrRefresh(message.attrs, expires);
  const bool locally_originated = message.origin == id_ && message.last_hop == kBroadcastId;
  if (message.last_hop != kBroadcastId) {
    const bool gradient_is_new = entry.FindGradient(message.last_hop) == nullptr;
    Gradient& gradient = gradients_.AddOrRefreshGradient(entry, message.last_hop, expires);
    if (gradient_is_new && sim_->tracing()) {
      sim_->Trace(TraceEvent{now, TraceEventKind::kGradientCreated, id_, message.last_hop,
                             message.PacketId(), 0});
    }
    // "interval IS n" (milliseconds) bounds this gradient's update rate.
    if (const Attribute* interval = FindActual(message.attrs, kKeyInterval)) {
      if (std::optional<int64_t> ms = interval->AsInt()) {
        gradient.data_interval = *ms > 0 ? *ms * kMillisecond : 0;
      }
    }
    if (message.origin != id_ && entry.last_interest_packet != message.PacketId()) {
      // First copy of this interest flood: its sender is the lowest-latency
      // direction toward the sink (one-phase pull routes on this). Echo
      // copies of this node's own flood don't count — the sink is not
      // downstream of itself.
      entry.last_interest_packet = message.PacketId();
      entry.preferred_interest_from = message.last_hop;
    }
  } else if (locally_originated) {
    entry.is_local = true;
  }

  const bool first_copy = !seen_packets_.CheckAndInsert(message.PacketId());
  if (!first_copy) {
    ++stats_.duplicates_suppressed;
    if (sim_->tracing()) {
      sim_->Trace(TraceEvent{now, TraceEventKind::kDuplicateSuppressed, id_, message.last_hop,
                             message.PacketId(), 0});
    }
    return;
  }

  // Inform local subscriptions-for-subscriptions (§4.1): publishers that
  // asked to hear about arriving interests. Candidate ids are collected
  // first because a callback may itself subscribe or unsubscribe; the index
  // visits each entry at most once in a deterministic order, so no
  // sort+unique pass is needed.
  std::vector<uint32_t> watcher_ids;
  if (!subscriptions_.empty()) {
    subscription_index_->ForEachCandidate(
        message.attrs, [&](const MatchIndexEntry& entry) { watcher_ids.push_back(entry.id); });
  }
  for (uint32_t id : watcher_ids) {
    auto sub_it = subscriptions_.find(SubscriptionHandle{id});
    if (sub_it == subscriptions_.end()) {
      continue;  // removed by an earlier callback
    }
    if (TwoWayMatch(sub_it->second.attrs, message.attrs)) {
      DataCallback callback = sub_it->second.callback;
      callback(message.attrs.items());
    }
  }

  // Flood onward.
  if (locally_originated) {
    Message out = message;
    out.next_hop = kBroadcastId;
    ++stats_.interests_originated;
    TransmitShaped(std::move(out));
  } else if (message.ttl > 1) {
    Message out = message;
    --out.ttl;
    out.next_hop = kBroadcastId;
    ++stats_.messages_forwarded;
    TransmitAfterJitter(std::move(out));
  }
}

namespace {

// True when the gradient's desired update rate admits another regular data
// message at `now` (§3.1's per-gradient rate control).
bool GradientAdmitsData(const Gradient& gradient, SimTime now) {
  if (gradient.data_interval <= 0 || gradient.last_data_forwarded < 0) {
    return true;
  }
  return now - gradient.last_data_forwarded >= gradient.data_interval;
}

}  // namespace

void DiffusionNode::ProcessData(Message& message) {
  if (seen_packets_.CheckAndInsert(message.PacketId())) {
    ++stats_.duplicates_suppressed;
    if (sim_->tracing()) {
      sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kDuplicateSuppressed, id_,
                             message.last_hop, message.PacketId(), 1});
    }
    return;
  }
  const SimTime now = sim_->now();
  const bool exploratory = message.type == MessageType::kExploratoryData;
  const bool from_network = message.last_hop != kBroadcastId;

  std::vector<InterestEntry*> entries = gradients_.MatchData(message.attrs);
  if (entries.empty()) {
    return;
  }

  bool deliver_local = false;
  std::set<NodeId> next_hops;
  for (InterestEntry* entry : entries) {
    if (config_.variant == DiffusionVariant::kOnePhasePull) {
      // Forward along the preferred (first-interest-copy) gradient only.
      if (entry->is_local) {
        deliver_local = true;
      }
      const NodeId preferred = entry->preferred_interest_from;
      Gradient* gradient =
          preferred != kBroadcastId ? entry->FindGradient(preferred) : nullptr;
      if (gradient != nullptr && preferred != message.last_hop &&
          GradientAdmitsData(*gradient, now)) {
        gradient->last_data_forwarded = now;
        next_hops.insert(preferred);
      }
      continue;
    }
    if (exploratory && from_network) {
      // First copy wins (duplicates were suppressed above): remember the
      // preferred upstream neighbor for reinforcement.
      entry->last_exploratory_packet = message.PacketId();
      entry->last_exploratory_from = message.last_hop;
    }
    if (entry->is_local) {
      deliver_local = true;
    }
    for (Gradient& gradient : entry->gradients) {
      if (gradient.neighbor == message.last_hop) {
        continue;
      }
      if (exploratory) {
        // Exploratory data ignores rate limits: it maintains paths.
        next_hops.insert(gradient.neighbor);
      } else if (gradient.reinforced && GradientAdmitsData(gradient, now)) {
        gradient.last_data_forwarded = now;
        next_hops.insert(gradient.neighbor);
      }
    }
    if (exploratory && from_network && entry->is_local) {
      // Sink behaviour: reinforce the neighbor that delivered the first copy
      // of this exploratory message, and negatively reinforce previously
      // preferred neighbors that have stopped winning.
      entry->reinforced_upstream[message.last_hop] = now;
      entry->last_upstream_reinforce_packet = message.PacketId();
      SendReinforcement(MessageType::kPositiveReinforcement, *entry, message.last_hop);
      for (auto it = entry->reinforced_upstream.begin();
           it != entry->reinforced_upstream.end();) {
        if (now - it->second > config_.negative_reinforcement_after) {
          SendReinforcement(MessageType::kNegativeReinforcement, *entry, it->first);
          it = entry->reinforced_upstream.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  if (deliver_local) {
    DeliverLocalData(message);
  }

  if (message.ttl <= 1 || next_hops.empty()) {
    return;
  }
  Message out = message;
  const bool forwarded = message.last_hop != kBroadcastId;
  if (forwarded) {
    // Origination does not consume hop budget (matching interest floods):
    // ttl = N reaches N hops.
    --out.ttl;
  }
  if (exploratory && config_.variant == DiffusionVariant::kTwoPhasePull) {
    // Exploratory data is re-broadcast once per node ("flooded in turn from
    // each node", §6.1); receivers without matching gradients drop it.
    out.next_hop = kBroadcastId;
    if (forwarded) {
      ++stats_.messages_forwarded;
      TransmitAfterJitter(std::move(out));
    } else {
      TransmitShaped(std::move(out));
    }
  } else {
    for (NodeId hop : next_hops) {
      out.next_hop = hop;
      if (forwarded) {
        ++stats_.messages_forwarded;
        TransmitAfterJitter(out);
      } else {
        TransmitShaped(out);
      }
    }
  }
}

void DiffusionNode::ProcessPositiveReinforcement(Message& message) {
  if (config_.variant == DiffusionVariant::kOnePhasePull) {
    return;  // no reinforcement phase
  }
  InterestEntry* entry = gradients_.FindExact(message.attrs);
  if (entry == nullptr) {
    return;
  }
  const SimTime now = sim_->now();
  if (message.last_hop != kBroadcastId) {
    const bool gradient_is_new = entry->FindGradient(message.last_hop) == nullptr;
    Gradient& gradient =
        gradients_.AddOrRefreshGradient(*entry, message.last_hop, now + kGradientLifetime);
    gradients_.Reinforce(gradient, now + config_.reinforcement_lifetime);
    if (sim_->tracing()) {
      if (gradient_is_new) {
        sim_->Trace(TraceEvent{now, TraceEventKind::kGradientCreated, id_, message.last_hop,
                               message.PacketId(), 0});
      }
      sim_->Trace(TraceEvent{now, TraceEventKind::kGradientReinforced, id_, message.last_hop,
                             message.PacketId(), 1});
    }
  }
  if (entry->is_local || IsSourceFor(*entry)) {
    return;  // ends at the source (or at another sink)
  }
  if (entry->last_exploratory_from == kBroadcastId) {
    return;  // no known upstream to extend the path toward
  }
  if (entry->last_upstream_reinforce_packet == entry->last_exploratory_packet &&
      entry->reinforced_upstream.contains(entry->last_exploratory_from)) {
    return;  // already propagated for this exploratory round
  }
  entry->last_upstream_reinforce_packet = entry->last_exploratory_packet;
  entry->reinforced_upstream[entry->last_exploratory_from] = now;
  SendReinforcement(MessageType::kPositiveReinforcement, *entry, entry->last_exploratory_from);
}

void DiffusionNode::ProcessNegativeReinforcement(Message& message) {
  InterestEntry* entry = gradients_.FindExact(message.attrs);
  if (entry == nullptr) {
    return;
  }
  if (Gradient* gradient = entry->FindGradient(message.last_hop)) {
    gradient->reinforced = false;
    if (sim_->tracing()) {
      sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kGradientNegativelyReinforced, id_,
                             message.last_hop, message.PacketId(), -1});
    }
  }
  // If nothing downstream still wants full-rate data, tear the path down
  // further ("this negative reinforcement propagates neighbor-to-neighbor").
  if (!entry->is_local && !entry->HasReinforcedGradient()) {
    for (const auto& [upstream, last_win] : entry->reinforced_upstream) {
      SendReinforcement(MessageType::kNegativeReinforcement, *entry, upstream);
    }
    entry->reinforced_upstream.clear();
  }
}

SimDuration DiffusionNode::JitterWindowFor(MessageType type) const {
  if (!traffic_.jitter.enabled) {
    return 0;
  }
  switch (type) {
    case MessageType::kInterest:
    case MessageType::kPositiveReinforcement:
    case MessageType::kNegativeReinforcement:
      return kControlJitterWindow;
    case MessageType::kData:
      return kDataJitterWindow;
    case MessageType::kExploratoryData:
      return kRefreshJitterWindow;
  }
  return 0;
}

void DiffusionNode::TransmitShaped(Message message) {
  // B1: desynchronize originated traffic. With jitter disabled this is a
  // plain TransmitMessage — no RNG draw, no extra event.
  const SimDuration window = JitterWindowFor(message.type);
  if (window <= 0) {
    TransmitMessage(message);
    return;
  }
  ++stats_.transmits_jittered;
  TransmitLater(rng_.NextInt(0, window), std::move(message));
}

void DiffusionNode::TransmitAfterJitter(Message message) {
  if (config_.forward_delay_jitter <= 0) {
    TransmitMessage(message);
    return;
  }
  TransmitLater(rng_.NextInt(0, config_.forward_delay_jitter), std::move(message));
}

void DiffusionNode::TransmitLater(SimDuration delay, Message message) {
  const uint64_t token = next_transmit_token_++;
  const EventId event = sim_->After(delay, [this, token, message = std::move(message)] {
    auto it = std::find_if(pending_transmits_.begin(), pending_transmits_.end(),
                           [token](const PendingTransmit& p) { return p.token == token; });
    *it = pending_transmits_.back();
    pending_transmits_.pop_back();
    TransmitMessage(message);
  });
  pending_transmits_.push_back(PendingTransmit{token, event});
}

namespace {

// Trust-model mapping into the MAC's priority classes: control traffic
// (interests, reinforcements) keeps paths alive, data is the payload, and
// exploratory refreshes are the first to shed under congestion.
MacPriority PriorityFor(MessageType type) {
  switch (type) {
    case MessageType::kInterest:
    case MessageType::kPositiveReinforcement:
    case MessageType::kNegativeReinforcement:
      return MacPriority::kControl;
    case MessageType::kData:
      return MacPriority::kData;
    case MessageType::kExploratoryData:
      return MacPriority::kRefresh;
  }
  return MacPriority::kData;
}

}  // namespace

void DiffusionNode::TransmitMessage(const Message& message) {
  if (!alive_) {
    return;
  }
  if (!FitsWire(message.attrs.items())) {
    ++stats_.messages_refused;
    return;
  }
  // Zero-copy: the message is never encoded here. WireSize() equals the
  // encoded size exactly (pinned by arena_test).
  const size_t wire_bytes = message.WireSize();
  ++stats_.messages_sent;
  stats_.bytes_sent += wire_bytes;
  if (sim_->tracing()) {
    TraceEventKind kind = TraceEventKind::kDataForward;
    int64_t value = static_cast<int64_t>(wire_bytes);
    switch (message.type) {
      case MessageType::kInterest:
        kind = TraceEventKind::kInterestSent;
        break;
      case MessageType::kExploratoryData:
        kind = TraceEventKind::kExploratoryForward;
        break;
      case MessageType::kData:
        kind = TraceEventKind::kDataForward;
        break;
      case MessageType::kPositiveReinforcement:
        kind = TraceEventKind::kReinforcementSent;
        value = 1;
        break;
      case MessageType::kNegativeReinforcement:
        kind = TraceEventKind::kReinforcementSent;
        value = -1;
        break;
    }
    sim_->Trace(TraceEvent{sim_->now(), kind, id_, message.next_hop, message.PacketId(), value});
  }
  radio_.SendBody(message.next_hop, MessageBody::Make(&sim_->slot_pool(), message),
                  PriorityFor(message.type), /*originated=*/message.origin == id_);
}

void DiffusionNode::FloodInterest(const Subscription& subscription) {
  Message message;
  message.type = MessageType::kInterest;
  message.origin = id_;
  message.origin_seq = NextSeq();
  message.ttl = config_.flood_ttl;
  message.attrs = subscription.interest_attrs;
  DispatchToChain(std::move(message), std::numeric_limits<int32_t>::max());
}

void DiffusionNode::ScheduleRefresh(SubscriptionHandle handle) {
  auto it = subscriptions_.find(handle);
  if (it == subscriptions_.end()) {
    return;
  }
  const SimDuration base = kInterestRefresh;
  const SimDuration jitter =
      static_cast<SimDuration>(kRefreshJitterFraction * static_cast<double>(base));
  const SimDuration period = base - jitter / 2 + rng_.NextInt(0, jitter);
  it->second.refresh_event = sim_->After(period, [this, handle] {
    auto sub_it = subscriptions_.find(handle);
    if (sub_it == subscriptions_.end()) {
      return;
    }
    sub_it->second.refresh_event = kInvalidEventId;
    if (alive_) {
      FloodInterest(sub_it->second);
    }
    ScheduleRefresh(handle);
  });
}

void DiffusionNode::SendReinforcement(MessageType type, const InterestEntry& entry,
                                      NodeId neighbor) {
  Message message;
  message.type = type;
  message.origin = id_;
  message.origin_seq = NextSeq();
  message.ttl = 1;
  message.attrs = entry.attrs;
  message.next_hop = neighbor;
  if (type == MessageType::kPositiveReinforcement) {
    ++stats_.reinforcements_sent;
  } else {
    ++stats_.negative_reinforcements_sent;
  }
  TransmitShaped(std::move(message));
}

void DiffusionNode::DeliverLocalData(const Message& message) {
  if (subscriptions_.empty()) {
    return;
  }
  // Candidates first (the index visits each entry at most once, in its
  // deterministic structural order), then re-looked-up per callback — a
  // callback may unsubscribe itself or others while we deliver.
  std::vector<uint32_t> candidate_ids;
  subscription_index_->ForEachCandidate(
      message.attrs, [&](const MatchIndexEntry& entry) { candidate_ids.push_back(entry.id); });
  bool delivered = false;
  for (uint32_t id : candidate_ids) {
    auto it = subscriptions_.find(SubscriptionHandle{id});
    if (it == subscriptions_.end()) {
      continue;  // removed by an earlier callback
    }
    if (TwoWayMatch(it->second.attrs, message.attrs)) {
      // Copy the callback: it may unsubscribe (and destroy) itself.
      DataCallback callback = it->second.callback;
      callback(message.attrs.items());
      delivered = true;
    }
  }
  if (delivered) {
    ++stats_.data_delivered_local;
    if (sim_->tracing()) {
      sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kDataDelivered, id_, message.last_hop,
                             message.PacketId(), message.type == MessageType::kExploratoryData});
    }
  }
}

bool DiffusionNode::IsSourceFor(const InterestEntry& entry) const {
  for (const auto& [handle, publication] : publications_) {
    if (TwoWayMatch(entry.attrs, publication.attrs)) {
      return true;
    }
  }
  return false;
}

}  // namespace diffusion
