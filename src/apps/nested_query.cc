#include "src/apps/nested_query.h"

#include "src/apps/app_keys.h"
#include "src/apps/app_util.h"

namespace diffusion {
namespace {

AttributeVector LightInterestAttrs() {
  return {
      ClassEq(kClassData),
      Attribute::String(kKeyType, AttrOp::kEq, kTypeLight),
  };
}

AttributeVector AudioInterestAttrs() {
  return {
      ClassEq(kClassData),
      Attribute::String(kKeyType, AttrOp::kEq, kTypeAudio),
  };
}

AttributeVector TriggerInterestAttrs() {
  return {
      ClassEq(kClassData),
      Attribute::String(kKeyType, AttrOp::kEq, kTypeAudioTrigger),
  };
}

}  // namespace

// ---- LightSensor ----

LightSensor::LightSensor(DiffusionNode* node, NestedQueryConfig config, int32_t light_id)
    : node_(node), config_(config), light_id_(light_id), rng_(node->simulator().rng().Fork()) {}

LightSensor::~LightSensor() { Stop(); }

void LightSensor::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  publication_ = node_->Publish({
      Attribute::String(kKeyType, AttrOp::kIs, kTypeLight),
  });
  Tick();
}

void LightSensor::Stop() {
  running_ = false;
  if (tick_event_ != kInvalidEventId) {
    node_->simulator().Cancel(tick_event_);
    tick_event_ = kInvalidEventId;
  }
  if (publication_ != kInvalidHandle) {
    (void)node_->Unpublish(publication_);
    publication_ = kInvalidHandle;
  }
}

void LightSensor::Tick() {
  if (!running_) {
    return;
  }
  const SimTime now = node_->simulator().now();
  // Light "changes automatically every minute on the minute" (§6.2).
  const int32_t epoch = static_cast<int32_t>(now / config_.toggle_period);
  const int32_t state = epoch % 2;
  AttributeVector extra = {
      Attribute::Int32(kKeyLightState, AttrOp::kIs, state),
      Attribute::Int32(kKeyEventId, AttrOp::kIs, epoch),
      Attribute::Int32(kKeySourceId, AttrOp::kIs, light_id_),
      Attribute::Int32(kKeySequence, AttrOp::kIs, report_seq_++),
  };
  AttributeVector full = {
      Attribute::String(kKeyType, AttrOp::kIs, kTypeLight),
      ClassIs(kClassData),
  };
  full.insert(full.end(), extra.begin(), extra.end());
  PadMessageAttrs(&full, config_.message_bytes);
  for (const Attribute& attr : full) {
    if (attr.key() == kKeyPad) {
      extra.push_back(attr);
    }
  }
  if (node_->Send(publication_, extra) == ApiResult::kOk) {
    ++reports_sent_;
  }
  const SimDuration next =
      kLightReportInterval + rng_.NextInt(-kLightReportJitter / 2, kLightReportJitter / 2);
  tick_event_ = node_->simulator().After(next, [this] {
    tick_event_ = kInvalidEventId;
    Tick();
  });
}

// ---- AudioSensor ----

AudioSensor::AudioSensor(DiffusionNode* node, NestedQueryConfig config, QueryMode mode,
                         std::vector<int32_t> light_ids)
    : node_(node), config_(config), mode_(mode), light_ids_(std::move(light_ids)) {}

AudioSensor::~AudioSensor() {
  if (epoch_event_ != kInvalidEventId) {
    node_->simulator().Cancel(epoch_event_);
  }
  if (audio_publication_ != kInvalidHandle) {
    (void)node_->Unpublish(audio_publication_);
  }
  if (interest_watch_ != kInvalidHandle) {
    (void)node_->Unsubscribe(interest_watch_);
  }
  if (light_subscription_ != kInvalidHandle) {
    (void)node_->Unsubscribe(light_subscription_);
  }
  if (trigger_subscription_ != kInvalidHandle) {
    (void)node_->Unsubscribe(trigger_subscription_);
  }
}

void AudioSensor::Start() {
  audio_publication_ = node_->Publish({
      Attribute::String(kKeyType, AttrOp::kIs, kTypeAudio),
  });
  switch (mode_) {
    case QueryMode::kNested: {
      // Subscribe for subscriptions: when a user's audio interest arrives,
      // sub-task the initial (light) sensors ourselves (Figure 6b).
      AttributeVector watch = {
          Attribute::String(kKeyType, AttrOp::kIs, kTypeAudio),
          ClassIs(kClassData),
          ClassEq(kClassInterest),
      };
      interest_watch_ = node_->Subscribe(
          std::move(watch), [this](const AttributeVector& /*interest*/) { OnAudioInterest(); });
      break;
    }
    case QueryMode::kFlat: {
      // The sensor physically hears each event (§6.2's simulated generation):
      // produce one clip per light-change, shortly after each toggle epoch.
      const SimTime now = node_->simulator().now();
      const SimTime next_boundary =
          (now / config_.toggle_period + 1) * config_.toggle_period + 500 * kMillisecond;
      epoch_event_ = node_->simulator().At(next_boundary, [this] { EpochTick(); });
      break;
    }
    case QueryMode::kFlatTriggered: {
      // Only answer explicit per-event triggers from the user.
      trigger_subscription_ = node_->Subscribe(
          TriggerInterestAttrs(), [this](const AttributeVector& attrs) { OnTrigger(attrs); });
      break;
    }
  }
}

void AudioSensor::EpochTick() {
  const int32_t epoch =
      static_cast<int32_t>(node_->simulator().now() / config_.toggle_period);
  for (int32_t light_id : light_ids_) {
    GenerateAudio(epoch, light_id);
  }
  epoch_event_ = node_->simulator().After(config_.toggle_period, [this] { EpochTick(); });
}

void AudioSensor::OnAudioInterest() {
  if (lights_tasked_) {
    return;
  }
  lights_tasked_ = true;
  light_subscription_ = node_->Subscribe(
      LightInterestAttrs(), [this](const AttributeVector& attrs) { OnLightReport(attrs); });
}

void AudioSensor::OnLightReport(const AttributeVector& attrs) {
  const int32_t light_id = GetInt32ActualOr(attrs, kKeySourceId, -1);
  const int32_t epoch = GetInt32ActualOr(attrs, kKeyEventId, -1);
  const int32_t state = GetInt32ActualOr(attrs, kKeyLightState, -1);
  if (light_id < 0 || epoch < 0) {
    return;
  }
  auto it = last_light_state_.find(light_id);
  const bool changed = it == last_light_state_.end() || it->second != state;
  last_light_state_[light_id] = state;
  if (changed) {
    GenerateAudio(epoch, light_id);
  }
}

void AudioSensor::OnTrigger(const AttributeVector& attrs) {
  const int32_t light_id = GetInt32ActualOr(attrs, kKeySourceId, -1);
  const int32_t epoch = GetInt32ActualOr(attrs, kKeyEventId, -1);
  if (light_id < 0 || epoch < 0) {
    return;
  }
  GenerateAudio(epoch, light_id);
}

void AudioSensor::GenerateAudio(int32_t epoch, int32_t light_id) {
  const int64_t key = LightEventKey(epoch, light_id);
  if (!generated_events_.insert(key).second) {
    return;  // one clip per light-change event
  }
  AttributeVector extra = {
      Attribute::Int32(kKeyEventId, AttrOp::kIs, epoch),
      Attribute::Int32(kKeySourceId, AttrOp::kIs, light_id),
  };
  AttributeVector full = {
      Attribute::String(kKeyType, AttrOp::kIs, kTypeAudio),
      ClassIs(kClassData),
  };
  full.insert(full.end(), extra.begin(), extra.end());
  PadMessageAttrs(&full, config_.message_bytes);
  for (const Attribute& attr : full) {
    if (attr.key() == kKeyPad) {
      extra.push_back(attr);
    }
  }
  if (node_->Send(audio_publication_, extra) == ApiResult::kOk) {
    ++audio_generated_;
  }
}

// ---- QueryUser ----

QueryUser::QueryUser(DiffusionNode* node, NestedQueryConfig config, QueryMode mode)
    : node_(node), config_(config), mode_(mode) {}

QueryUser::~QueryUser() {
  if (audio_subscription_ != kInvalidHandle) {
    (void)node_->Unsubscribe(audio_subscription_);
  }
  if (light_subscription_ != kInvalidHandle) {
    (void)node_->Unsubscribe(light_subscription_);
  }
  if (trigger_publication_ != kInvalidHandle) {
    (void)node_->Unpublish(trigger_publication_);
  }
}

void QueryUser::Start() {
  audio_subscription_ = node_->Subscribe(
      AudioInterestAttrs(), [this](const AttributeVector& attrs) { OnAudioData(attrs); });
  if (mode_ != QueryMode::kNested) {
    light_subscription_ = node_->Subscribe(
        LightInterestAttrs(), [this](const AttributeVector& attrs) { OnLightReport(attrs); });
  }
  if (mode_ == QueryMode::kFlatTriggered) {
    trigger_publication_ = node_->Publish({
        Attribute::String(kKeyType, AttrOp::kIs, kTypeAudioTrigger),
    });
  }
}

size_t QueryUser::DeliveredInEpochRange(int32_t begin_epoch, int32_t end_epoch) const {
  size_t count = 0;
  for (int64_t key : delivered_) {
    const int32_t epoch = static_cast<int32_t>(key >> 16);
    if (epoch >= begin_epoch && epoch < end_epoch) {
      ++count;
    }
  }
  return count;
}

void QueryUser::OnAudioData(const AttributeVector& attrs) {
  ++audio_received_;
  const int32_t light_id = GetInt32ActualOr(attrs, kKeySourceId, -1);
  const int32_t epoch = GetInt32ActualOr(attrs, kKeyEventId, -1);
  if (light_id < 0 || epoch < 0) {
    return;
  }
  const int64_t key = LightEventKey(epoch, light_id);
  audio_observed_.insert(key);
  if (mode_ == QueryMode::kFlat) {
    // One-level query: the user needs the light report too to correlate.
    if (light_observed_.contains(key)) {
      delivered_.insert(key);
    }
  } else {
    delivered_.insert(key);
  }
}

void QueryUser::OnLightReport(const AttributeVector& attrs) {
  const int32_t light_id = GetInt32ActualOr(attrs, kKeySourceId, -1);
  const int32_t epoch = GetInt32ActualOr(attrs, kKeyEventId, -1);
  const int32_t state = GetInt32ActualOr(attrs, kKeyLightState, -1);
  if (light_id < 0 || epoch < 0) {
    return;
  }
  auto it = last_light_state_.find(light_id);
  const bool changed = it == last_light_state_.end() || it->second != state;
  last_light_state_[light_id] = state;
  if (!changed) {
    return;
  }
  const int64_t key = LightEventKey(epoch, light_id);
  light_observed_.insert(key);
  if (mode_ == QueryMode::kFlat) {
    if (audio_observed_.contains(key)) {
      delivered_.insert(key);
    }
    return;
  }
  if (mode_ != QueryMode::kFlatTriggered || !triggered_.insert(key).second) {
    return;
  }
  // "When a sensor is triggered, the user queries the triggered sensor"
  // (Figure 6a): one trigger message per observed light-change event.
  AttributeVector extra = {
      Attribute::Int32(kKeyEventId, AttrOp::kIs, epoch),
      Attribute::Int32(kKeySourceId, AttrOp::kIs, light_id),
  };
  if (node_->Send(trigger_publication_, extra) == ApiResult::kOk) {
    ++triggers_sent_;
  }
}

}  // namespace diffusion
