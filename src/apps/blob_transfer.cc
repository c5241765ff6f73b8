#include "src/apps/blob_transfer.h"

#include <algorithm>
#include <limits>

#include "src/apps/app_keys.h"

namespace diffusion {
namespace {

AttributeVector BlobBaseInterest(int32_t object_id) {
  return {
      ClassEq(kClassData),
      Attribute::String(kKeyType, AttrOp::kEq, kTypeBlob),
      Attribute::Int32(kKeyBlobId, AttrOp::kEq, object_id),
  };
}

}  // namespace

// ---- BlobSender ----

BlobSender::BlobSender(DiffusionNode* node, int32_t object_id, std::vector<uint8_t> object)
    : node_(node), object_id_(object_id) {
  for (size_t offset = 0; offset < object.size() || (object.empty() && offset == 0);
       offset += kBlobChunkBytes) {
    const size_t end = std::min(object.size(), offset + kBlobChunkBytes);
    chunks_.emplace_back(object.begin() + offset, object.begin() + end);
    if (object.empty()) {
      break;
    }
  }

  publication_ = node_->Publish({
      Attribute::String(kKeyType, AttrOp::kIs, kTypeBlob),
      Attribute::Int32(kKeyBlobId, AttrOp::kIs, object_id_),
  });

  // Watch for interests in this blob with a filter (one-way match): a
  // repair interest's chunk-range formals have no satisfiable actual, so a
  // two-way meta-subscription could never see them. The filter keys on the
  // identifying actuals repair interests carry.
  AttributeVector watch = {
      ClassEq(kClassInterest),
      Attribute::String(kKeyType, AttrOp::kEq, kTypeBlob),
      Attribute::Int32(kKeyBlobId, AttrOp::kEq, object_id_),
  };
  interest_filter_ = node_->AddFilter(
      std::move(watch), /*priority=*/50,
      [this](Message& message, FilterApi& api) { OnInterest(message, api); });
}

BlobSender::~BlobSender() {
  if (pump_event_ != kInvalidEventId) {
    node_->simulator().Cancel(pump_event_);
  }
  (void)node_->RemoveFilter(interest_filter_);
  (void)node_->Unpublish(publication_);
}

void BlobSender::Start() {
  for (size_t i = 0; i < chunks_.size(); ++i) {
    send_queue_.push_back(i);
  }
  if (pump_event_ == kInvalidEventId) {
    PumpQueue();
  }
}

void BlobSender::OnInterest(Message& message, FilterApi& api) {
  const bool is_interest = message.type == MessageType::kInterest;
  const AttributeSet interest = message.attrs;
  const uint64_t packet_id = message.PacketId();
  // Always let the message continue through normal diffusion processing.
  api.SendMessage(std::move(message), interest_filter_);
  if (!is_interest) {
    return;  // reinforcements share the interest's attributes
  }

  // React once per flooded interest packet (copies arrive from several
  // neighbors).
  if (!seen_interest_packets_.insert(packet_id).second) {
    return;
  }
  if (seen_interest_packets_.size() > 1024) {
    seen_interest_packets_.erase(seen_interest_packets_.begin());
  }

  // Extract the chunk range from the interest's formals; an interest without
  // chunk constraints is the receiver's base subscription (or its periodic
  // refresh), not a repair request.
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool constrained = false;
  for (const Attribute& attr : interest) {
    if (attr.key() != kKeyBlobChunk || !attr.IsFormal()) {
      continue;
    }
    const std::optional<int64_t> value = attr.AsInt();
    if (!value.has_value()) {
      continue;
    }
    switch (attr.op()) {
      case AttrOp::kGe:
        lo = std::max(lo, *value);
        constrained = true;
        break;
      case AttrOp::kGt:
        lo = std::max(lo, *value + 1);
        constrained = true;
        break;
      case AttrOp::kLe:
        hi = std::min(hi, *value);
        constrained = true;
        break;
      case AttrOp::kLt:
        hi = std::min(hi, *value - 1);
        constrained = true;
        break;
      case AttrOp::kEq:
        lo = std::max(lo, *value);
        hi = std::min(hi, *value);
        constrained = true;
        break;
      default:
        break;
    }
  }
  if (!constrained) {
    return;
  }
  ++repair_requests_;
  const size_t first = static_cast<size_t>(std::max<int64_t>(lo, 0));
  const size_t last = static_cast<size_t>(
      std::min<int64_t>(hi, static_cast<int64_t>(chunks_.size()) - 1));
  for (size_t i = first; i <= last && i < chunks_.size(); ++i) {
    if (std::find(send_queue_.begin(), send_queue_.end(), i) == send_queue_.end()) {
      send_queue_.push_back(i);
    }
  }
  if (pump_event_ == kInvalidEventId && !send_queue_.empty()) {
    PumpQueue();
  }
}

void BlobSender::SendChunk(size_t index) {
  AttributeVector extra = {
      Attribute::Int32(kKeyBlobChunk, AttrOp::kIs, static_cast<int32_t>(index)),
      Attribute::Int32(kKeyBlobCount, AttrOp::kIs, static_cast<int32_t>(chunks_.size())),
      Attribute::Blob(kKeyBlobData, AttrOp::kIs, chunks_[index]),
  };
  if (node_->Send(publication_, extra) == ApiResult::kOk) {
    ++chunks_sent_;
  } else {
    // Nobody is interested (yet): keep the chunk queued and retry later.
    send_queue_.push_back(index);
  }
}

void BlobSender::PumpQueue() {
  pump_event_ = kInvalidEventId;
  if (send_queue_.empty()) {
    return;
  }
  const size_t index = send_queue_.front();
  send_queue_.erase(send_queue_.begin());
  const size_t queue_before = send_queue_.size();
  SendChunk(index);
  // If the send failed (chunk re-queued), back off harder.
  const bool making_progress = send_queue_.size() <= queue_before;
  const SimDuration delay = making_progress ? kBlobChunkInterval : kSecond;
  if (!send_queue_.empty()) {
    pump_event_ = node_->simulator().After(delay, [this] { PumpQueue(); });
  }
}

// ---- BlobReceiver ----

BlobReceiver::BlobReceiver(DiffusionNode* node, int32_t object_id, BlobReceiverConfig config)
    : node_(node), object_id_(object_id), config_(config) {}

BlobReceiver::~BlobReceiver() {
  if (repair_event_ != kInvalidEventId) {
    node_->simulator().Cancel(repair_event_);
  }
  if (subscription_ != kInvalidHandle) {
    (void)node_->Unsubscribe(subscription_);
  }
  for (SubscriptionHandle handle : repair_subscriptions_) {
    (void)node_->Unsubscribe(handle);
  }
}

void BlobReceiver::Start(CompletionCallback on_complete) {
  on_complete_ = std::move(on_complete);
  subscription_ = node_->Subscribe(BlobBaseInterest(object_id_),
                                   [this](const AttributeVector& attrs) { OnChunk(attrs); });
  repair_event_ =
      node_->simulator().After(config_.repair_delay, [this] { CheckAndRepair(); });
}

void BlobReceiver::OnChunk(const AttributeVector& attrs) {
  if (complete_) {
    return;
  }
  const Attribute* chunk = FindActual(attrs, kKeyBlobChunk);
  const Attribute* count = FindActual(attrs, kKeyBlobCount);
  const Attribute* data = FindActual(attrs, kKeyBlobData);
  if (chunk == nullptr || count == nullptr || data == nullptr) {
    return;
  }
  const std::optional<int64_t> index = chunk->AsInt();
  const std::optional<int64_t> total = count->AsInt();
  const std::vector<uint8_t>* payload = data->AsBlob();
  if (!index.has_value() || !total.has_value() || payload == nullptr || *index < 0 ||
      *total <= 0 || *index >= *total) {
    return;
  }
  expected_ = static_cast<size_t>(*total);
  chunks_[static_cast<int32_t>(*index)] = *payload;
  FinishIfComplete();
}

std::vector<std::pair<int32_t, int32_t>> BlobReceiver::MissingSpans() const {
  std::vector<std::pair<int32_t, int32_t>> spans;
  if (!expected_.has_value()) {
    return spans;
  }
  const int32_t total = static_cast<int32_t>(*expected_);
  int32_t i = 0;
  while (i < total) {
    if (chunks_.contains(i)) {
      ++i;
      continue;
    }
    int32_t j = i;
    while (j + 1 < total && !chunks_.contains(j + 1)) {
      ++j;
    }
    spans.emplace_back(i, j);
    i = j + 1;
  }
  return spans;
}

void BlobReceiver::CheckAndRepair() {
  repair_event_ = kInvalidEventId;
  if (complete_) {
    return;
  }
  if (config_.max_repair_rounds > 0 && repair_rounds_ >= config_.max_repair_rounds) {
    return;
  }
  ++repair_rounds_;

  // Drop the previous round's range interests; new spans supersede them.
  for (SubscriptionHandle handle : repair_subscriptions_) {
    (void)node_->Unsubscribe(handle);
  }
  repair_subscriptions_.clear();

  std::vector<std::pair<int32_t, int32_t>> spans = MissingSpans();
  if (!expected_.has_value()) {
    // Nothing arrived at all: request everything.
    spans.emplace_back(0, std::numeric_limits<int32_t>::max() - 1);
  }
  // A fragmented missing set could mean dozens of parallel interest floods;
  // coalesce neighbors until the request count is tame. Over-asking only
  // costs a few duplicate chunks (suppressed by the packet cache at the
  // receiver anyway).
  constexpr size_t kMaxRepairSpans = 4;
  while (spans.size() > kMaxRepairSpans) {
    // Merge the pair of adjacent spans with the smallest gap.
    size_t best = 0;
    int32_t best_gap = std::numeric_limits<int32_t>::max();
    for (size_t i = 0; i + 1 < spans.size(); ++i) {
      const int32_t gap = spans[i + 1].first - spans[i].second;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    spans[best].second = spans[best + 1].second;
    spans.erase(spans.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
  for (const auto& [lo, hi] : spans) {
    AttributeVector repair = BlobBaseInterest(object_id_);
    repair.push_back(Attribute::Int32(kKeyBlobChunk, AttrOp::kGe, lo));
    repair.push_back(Attribute::Int32(kKeyBlobChunk, AttrOp::kLe, hi));
    // Identifying actuals: the sender-side filter matches on these.
    repair.push_back(Attribute::String(kKeyType, AttrOp::kIs, kTypeBlob));
    repair.push_back(Attribute::Int32(kKeyBlobId, AttrOp::kIs, object_id_));
    repair_subscriptions_.push_back(node_->Subscribe(
        std::move(repair), [this](const AttributeVector& attrs) { OnChunk(attrs); }));
  }
  repair_event_ =
      node_->simulator().After(config_.repair_delay, [this] { CheckAndRepair(); });
}

void BlobReceiver::FinishIfComplete() {
  if (!expected_.has_value() || chunks_.size() < *expected_) {
    return;
  }
  complete_ = true;
  if (repair_event_ != kInvalidEventId) {
    node_->simulator().Cancel(repair_event_);
    repair_event_ = kInvalidEventId;
  }
  std::vector<uint8_t> object;
  for (const auto& [index, payload] : chunks_) {
    object.insert(object.end(), payload.begin(), payload.end());
  }
  if (on_complete_) {
    on_complete_(object);
  }
}

}  // namespace diffusion
