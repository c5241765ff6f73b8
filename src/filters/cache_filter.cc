#include "src/filters/cache_filter.h"

#include "src/naming/matching.h"

namespace diffusion {

CacheFilter::CacheFilter(DiffusionNode* node, AttributeVector data_match_attrs, int16_t priority,
                         size_t capacity, SimDuration max_age)
    : node_(node), capacity_(capacity), max_age_(max_age) {
  data_filter_ =
      node_->AddFilter(std::move(data_match_attrs), priority,
                       [this](Message& message, FilterApi& api) { OnData(message, api); });
  interest_filter_ =
      node_->AddFilter({ClassEq(kClassInterest)}, priority,
                       [this](Message& message, FilterApi& api) { OnInterest(message, api); });
}

CacheFilter::~CacheFilter() {
  (void)node_->RemoveFilter(data_filter_);
  (void)node_->RemoveFilter(interest_filter_);
}

void CacheFilter::OnData(Message& message, FilterApi& api) {
  EvictOld();
  // Keep one entry per exact attribute set (a retransmission refreshes its
  // timestamp rather than duplicating it).
  bool refreshed = false;
  for (Entry& entry : entries_) {
    if (ExactMatch(entry.attrs, message.attrs)) {
      entry.stored_at = api.now();
      refreshed = true;
      break;
    }
  }
  if (!refreshed) {
    entries_.push_back(Entry{message.attrs, api.now()});
    ++cached_;
    while (entries_.size() > capacity_) {
      entries_.pop_front();
    }
  }
  api.SendMessage(std::move(message), data_filter_);
}

void CacheFilter::OnInterest(Message& message, FilterApi& api) {
  if (message.type != MessageType::kInterest) {
    // Reinforcements carry the interest's attribute set (including its
    // "class IS interest" actual) and so match this filter too; replaying
    // against them would ping-pong with the sink's reinforcement responses.
    api.SendMessage(std::move(message), interest_filter_);
    return;
  }
  const uint64_t packet_id = message.PacketId();
  const AttributeSet interest = message.attrs;
  // Let the interest continue (gradient setup, re-flood) first, so the
  // replayed data finds routing state in place.
  api.SendMessage(std::move(message), interest_filter_);

  // Replay once per interest packet, from the newest matching entry.
  if (replayed_interests_.CheckAndInsert(packet_id)) {
    return;
  }
  EvictOld();
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (!TwoWayMatch(interest, it->attrs)) {
      continue;
    }
    Message replay;
    // Exploratory: it must travel along the interest's fresh gradients all
    // the way back to the new sink and reinforce a path as it goes.
    replay.type = MessageType::kExploratoryData;
    replay.origin = api.node_id();
    replay.origin_seq = api.NewOriginSeq();
    replay.attrs = it->attrs;
    ++replays_;
    api.SendMessageToNext(std::move(replay));
    return;
  }
}

void CacheFilter::EvictOld() {
  const SimTime now = node_->simulator().now();
  while (!entries_.empty() && now - entries_.front().stored_at > max_age_) {
    entries_.pop_front();
  }
}

}  // namespace diffusion
