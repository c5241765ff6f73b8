// Carrier-sense MAC.
//
// The paper's MAC is deliberately primitive: "performing only simple carrier
// detection and lacking RTS/CTS or ARQ" (§6.1). This class reproduces that:
// listen-before-talk with randomized backoff when busy, one shot per frame
// (no acknowledgements, no retransmission of corrupted frames), a bounded
// transmit queue that drops under congestion.

#ifndef SRC_RADIO_MAC_H_
#define SRC_RADIO_MAC_H_

#include <deque>
#include <vector>

#include "src/radio/channel.h"
#include "src/radio/fragmentation.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace diffusion {

// Outcome of offering a frame to the MAC. Mirrors the ApiResult pattern:
// the enum is [[nodiscard]] so no drop reason can be silently ignored, and
// each reason is counted separately in MacStats.
enum class [[nodiscard]] MacResult : uint8_t {
  kQueued = 0,
  // The transmit queue was full; the arriving frame is dropped (tail drop).
  kDroppedQueueFull = 1,
  // The frame's priority-class token bucket was empty (rate limiting).
  kDroppedRateLimited = 2,
};

constexpr const char* MacResultName(MacResult result) {
  switch (result) {
    case MacResult::kQueued:
      return "queued";
    case MacResult::kDroppedQueueFull:
      return "dropped_queue_full";
    case MacResult::kDroppedRateLimited:
      return "dropped_rate_limited";
  }
  return "?";
}

constexpr bool IsQueued(MacResult result) { return result == MacResult::kQueued; }

// Frame priority class for per-class rate limiting: control (interests,
// reinforcements), regular data, and path-refresh traffic (exploratory
// data). Only data and refresh can carry a token bucket; control is never
// throttled.
enum class MacPriority : uint8_t {
  kControl = 0,
  kData = 1,
  kRefresh = 2,
};
inline constexpr size_t kMacPriorityClasses = 3;

// Deterministic token bucket over on-air bytes for one priority class
// (SNIPPETS B3). Refill is computed from elapsed sim time, so shaping is
// bit-reproducible from the seed.
struct MacTokenBucket {
  bool enabled = false;
  double rate_bytes_per_s = 400.0;  // sustained on-air bytes per second
  double burst_bytes = 800.0;       // bucket capacity (initial fill)
  // Ingress policing: when set, the bucket meters only traffic this node
  // originates and exempts transit (forwarded) traffic, which already paid
  // admission at its own origin. Per-hop metering of transit traffic taxes a
  // multi-hop flow once per relay, which compounds into heavy end-to-end
  // loss for well-behaved flows; origination-only metering throttles a
  // misbehaving source at its own MAC without that cascade.
  bool originated_only = false;
};

// The optional traffic-shaping layer of the MAC, off by default: token
// buckets for the data and refresh classes. With both disabled the MAC is
// byte-identical to the paper's carrier-sense-only design.
struct MacShaping {
  MacTokenBucket data;     // bucket for MacPriority::kData
  MacTokenBucket refresh;  // bucket for MacPriority::kRefresh

  // True when either bucket is on.
  bool AnyLayerEnabled() const { return data.enabled || refresh.enabled; }
};

struct MacConfig {
  // Radiometrix RPC-class radio: ~13 kb/s of usable throughput (§6.1).
  double bitrate_bps = 13000.0;
  // Preamble/sync/framing bytes per on-air frame, beyond the fragment bytes.
  size_t frame_overhead_bytes = 8;
  // Carrier-sense backoff parameters: wait Uniform[1, cw] slots when busy,
  // with cw doubling per consecutive busy attempt up to cw_max_slots.
  SimDuration slot = 2 * kMillisecond;
  int cw_min_slots = 4;
  int cw_max_slots = 128;
  // Give up on a frame after this many busy-channel attempts (no ARQ: a
  // frame that does get transmitted is never retried regardless of outcome).
  int max_attempts = 16;
  // Transmit queue bound; enqueue fails when full (congestion drop).
  size_t queue_limit = 64;
  // Spacing inserted after each transmission before the next attempt.
  SimDuration interframe_spacing = 2 * kMillisecond;
  // Random initial deferral for a frame arriving at an idle MAC; desynchronizes
  // neighbors that all react to the same broadcast.
  SimDuration initial_jitter = 4 * kMillisecond;

  // Duty cycling (the §6.1/§7 energy-conserving MAC the paper calls for):
  // all radios are awake for the first duty_cycle fraction of every
  // duty_period and asleep otherwise, on a network-synchronized schedule
  // (TDMA-style, like the WINSng radios' 10-15% duty cycles). Transmissions
  // are deferred into awake windows and must fit entirely inside one. 1.0
  // disables sleeping.
  double duty_cycle = 1.0;
  SimDuration duty_period = 1 * kSecond;

  // Optional rate limiting (per-class token buckets). Defaults to off;
  // NodeOptions::traffic is the usual front door that fills this in.
  MacShaping shaping;
};

// True when `now` falls inside an awake window of the duty schedule.
bool InAwakeWindow(SimTime now, const MacConfig& config);

// The start of the next awake window at or after `now`.
SimTime NextAwakeTime(SimTime now, const MacConfig& config);

struct MacStats {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;  // on-air bytes including per-frame overhead
  uint64_t drops_queue_full = 0;
  uint64_t drops_channel_busy = 0;
  uint64_t drops_rate_limited = 0;  // token bucket empty (MacResult::kDroppedRateLimited)
  // Always 0. perfbench sums it into its MAC drop count; remove both
  // together.
  uint64_t drops_airtime = 0;
  SimDuration time_sending = 0;
};

class CsmaMac {
 public:
  CsmaMac(Simulator* sim, Channel* channel, ChannelEndpoint* endpoint, MacConfig config);

  // Message-level admission for the token buckets (B3), charged over the
  // message's full set of fragments: dropping a subset of a message's
  // fragments only wastes airtime on a message that can never reassemble,
  // so the buckets admit or reject whole messages. Counts + traces a drop
  // once per message. kQueued when admitted (always, when the buckets are
  // off). `originated` distinguishes locally-injected messages from
  // forwarded transit for originated_only buckets.
  MacResult AdmitMessage(MacPriority priority, const std::vector<Fragment>& fragments,
                         bool originated = true);

  // Offers a fragment for transmission. A full queue tail-drops it
  // (kDroppedQueueFull, counted + traced), whatever its class.
  MacResult Enqueue(Fragment fragment);

  bool transmitting() const { return transmitting_; }
  const MacStats& stats() const { return stats_; }

  // Drops all queued frames and cancels pending attempts (node death).
  void Reset();

  // On-air time for a frame of `fragment_bytes` fragment bytes.
  SimDuration FrameAirtime(size_t fragment_bytes) const;

 private:
  void ScheduleAttempt(SimDuration delay);
  void Attempt();
  void FinishTransmit();

  // The token bucket governing a message of class `priority` (nullptr for
  // control, when unshaped, or when the bucket is originated_only and this
  // is transit).
  const MacTokenBucket* BucketConfig(MacPriority priority, bool originated) const;
  // Deterministic refill from elapsed sim time, then a withdrawal attempt.
  bool TryWithdrawTokens(MacPriority priority, bool originated, double bytes);
  void TraceDrop(const Fragment& fragment, int64_t reason);

  Simulator* sim_;
  Channel* channel_;
  ChannelEndpoint* endpoint_;
  MacConfig config_;
  Rng rng_;

  // Token-bucket state per priority class (meaningful only for classes whose
  // bucket is enabled). Buckets start full.
  double tokens_[kMacPriorityClasses] = {0.0, 0.0, 0.0};
  SimTime tokens_refilled_at_[kMacPriorityClasses] = {0, 0, 0};
  bool tokens_primed_[kMacPriorityClasses] = {false, false, false};

  std::deque<Fragment> queue_;
  bool transmitting_ = false;
  bool attempt_pending_ = false;
  int attempts_ = 0;
  EventId pending_event_ = kInvalidEventId;
  MacStats stats_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_MAC_H_
