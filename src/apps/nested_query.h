// The §5.2/§6.2 nested-query application: audio sensing cued by light
// sensors.
//
// "A user requests acoustic data correlated with (triggered by) light
// sensors ... we simulate light data to change automatically every minute on
// the minute. Light sensors report their state every 2 s ... Audio sensors
// generate simulated audio data each time any light sensor changes state.
// Light and audio data messages are about 100 bytes long."
//
// Query placements (Figure 6):
//   kNested — the user tasks the audio sensor, which sub-tasks the light
//     sensors directly; light traffic stays local (1 hop), audio crosses 2
//     hops: 3 data hops end-to-end.
//   kFlat — the one-level query of §6.2: light reports travel all the way to
//     the user (3 hops) and the audio data (generated on each light change —
//     "audio sensors generate simulated audio data each time any light
//     sensor changes state", i.e. the sensor physically hears the event)
//     crosses 2 more: an event counts as delivered only when BOTH arrive,
//     the "cumulative effect of sending best-effort data across five hops".
//   kFlatTriggered — a stricter direct-query variant: the user, upon seeing
//     a light change, explicitly queries the audio sensor with a per-event
//     trigger message, and the audio sensor replies. Adds a third fragile
//     leg; kept for comparison.

#ifndef SRC_APPS_NESTED_QUERY_H_
#define SRC_APPS_NESTED_QUERY_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/node.h"
#include "src/util/rng.h"

namespace diffusion {

enum class QueryMode {
  kNested,
  kFlat,
  kFlatTriggered,
};

// A light sensor reports every kLightReportInterval ± kLightReportJitter/2.
// Real sensors' report clocks drift; exact 2-s ticks would phase-lock with
// the 60-s interest refreshes and toggle boundaries.
inline constexpr SimDuration kLightReportInterval = 2 * kSecond;
inline constexpr SimDuration kLightReportJitter = 400 * kMillisecond;

struct NestedQueryConfig {
  SimDuration toggle_period = 60 * kSecond;  // "every minute on the minute"
  size_t message_bytes = 100;
};

// Uniquely identifies one light-change event: which light, which toggle
// epoch.
inline int64_t LightEventKey(int32_t epoch, int32_t light_id) {
  return (static_cast<int64_t>(epoch) << 16) | static_cast<int64_t>(light_id & 0xffff);
}

// A light sensor: publishes its (simulated) state every report interval.
class LightSensor {
 public:
  LightSensor(DiffusionNode* node, NestedQueryConfig config, int32_t light_id);
  ~LightSensor();

  LightSensor(const LightSensor&) = delete;
  LightSensor& operator=(const LightSensor&) = delete;

  void Start();
  void Stop();

  uint64_t reports_sent() const { return reports_sent_; }

 private:
  void Tick();

  DiffusionNode* node_;
  NestedQueryConfig config_;
  int32_t light_id_;
  Rng rng_;
  PublicationHandle publication_ = kInvalidHandle;
  EventId tick_event_ = kInvalidEventId;
  int32_t report_seq_ = 0;
  bool running_ = false;
  uint64_t reports_sent_ = 0;
};

// The audio sensor ("A" at node 20). In nested mode it watches for audio
// interests and sub-tasks the lights itself; in flat mode it only answers
// explicit triggers from the user.
class AudioSensor {
 public:
  // `light_ids` names the deployed light sensors; in kFlat mode the audio
  // sensor "hears" each of their change events directly (simulated
  // generation, matching the paper's reproducible workload).
  AudioSensor(DiffusionNode* node, NestedQueryConfig config, QueryMode mode,
              std::vector<int32_t> light_ids = {});
  ~AudioSensor();

  AudioSensor(const AudioSensor&) = delete;
  AudioSensor& operator=(const AudioSensor&) = delete;

  void Start();

  uint64_t audio_events_generated() const { return audio_generated_; }
  bool lights_tasked() const { return lights_tasked_; }

 private:
  void OnAudioInterest();
  void OnLightReport(const AttributeVector& attrs);
  void OnTrigger(const AttributeVector& attrs);
  void GenerateAudio(int32_t epoch, int32_t light_id);
  void EpochTick();

  DiffusionNode* node_;
  NestedQueryConfig config_;
  QueryMode mode_;
  std::vector<int32_t> light_ids_;
  EventId epoch_event_ = kInvalidEventId;
  PublicationHandle audio_publication_ = kInvalidHandle;
  SubscriptionHandle interest_watch_ = kInvalidHandle;
  SubscriptionHandle light_subscription_ = kInvalidHandle;
  SubscriptionHandle trigger_subscription_ = kInvalidHandle;
  bool lights_tasked_ = false;
  std::unordered_map<int32_t, int32_t> last_light_state_;
  std::set<int64_t> generated_events_;
  uint64_t audio_generated_ = 0;
};

// The user ("U" at node 39): subscribes to audio data and counts which
// light-change events produced audio at the user — the Figure 9 metric. In
// flat mode it additionally subscribes to light data and emits one trigger
// per observed change.
class QueryUser {
 public:
  QueryUser(DiffusionNode* node, NestedQueryConfig config, QueryMode mode);
  ~QueryUser();

  QueryUser(const QueryUser&) = delete;
  QueryUser& operator=(const QueryUser&) = delete;

  void Start();

  // Distinct light-change events whose audio reached the user.
  size_t delivered_events() const { return delivered_.size(); }

  // Delivered events whose toggle epoch lies in [begin_epoch, end_epoch).
  size_t DeliveredInEpochRange(int32_t begin_epoch, int32_t end_epoch) const;
  uint64_t audio_messages_received() const { return audio_received_; }
  uint64_t triggers_sent() const { return triggers_sent_; }

 private:
  void OnAudioData(const AttributeVector& attrs);
  void OnLightReport(const AttributeVector& attrs);

  DiffusionNode* node_;
  NestedQueryConfig config_;
  QueryMode mode_;
  SubscriptionHandle audio_subscription_ = kInvalidHandle;
  SubscriptionHandle light_subscription_ = kInvalidHandle;
  PublicationHandle trigger_publication_ = kInvalidHandle;
  std::unordered_map<int32_t, int32_t> last_light_state_;
  std::set<int64_t> triggered_;
  std::set<int64_t> light_observed_;
  std::set<int64_t> audio_observed_;
  std::set<int64_t> delivered_;
  uint64_t audio_received_ = 0;
  uint64_t triggers_sent_ = 0;
};

}  // namespace diffusion

#endif  // SRC_APPS_NESTED_QUERY_H_
