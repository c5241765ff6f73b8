#include "src/radio/mac.h"

#include <algorithm>

namespace diffusion {

bool InAwakeWindow(SimTime now, const MacConfig& config) {
  if (config.duty_cycle >= 1.0 || config.duty_period <= 0) {
    return true;
  }
  const SimDuration offset = now % config.duty_period;
  const SimDuration awake =
      static_cast<SimDuration>(config.duty_cycle * static_cast<double>(config.duty_period));
  return offset < awake;
}

SimTime NextAwakeTime(SimTime now, const MacConfig& config) {
  if (InAwakeWindow(now, config)) {
    return now;
  }
  return (now / config.duty_period + 1) * config.duty_period;
}

CsmaMac::CsmaMac(Simulator* sim, Channel* channel, ChannelEndpoint* endpoint, MacConfig config)
    : sim_(sim),
      channel_(channel),
      endpoint_(endpoint),
      config_(config),
      rng_(sim->rng().Fork()) {}

SimDuration CsmaMac::FrameAirtime(size_t fragment_bytes) const {
  const double bits = static_cast<double>(fragment_bytes + config_.frame_overhead_bytes) * 8.0;
  return static_cast<SimDuration>(bits / config_.bitrate_bps * static_cast<double>(kSecond));
}

const MacTokenBucket* CsmaMac::BucketConfig(MacPriority priority, bool originated) const {
  if (priority == MacPriority::kControl) {
    return nullptr;  // interests and reinforcements are never throttled
  }
  const MacTokenBucket& bucket =
      priority == MacPriority::kData ? config_.shaping.data : config_.shaping.refresh;
  // Ingress policing: transit traffic is exempt from originated_only buckets.
  if (!bucket.enabled || (bucket.originated_only && !originated)) {
    return nullptr;
  }
  return &bucket;
}

bool CsmaMac::TryWithdrawTokens(MacPriority priority, bool originated, double bytes) {
  const MacTokenBucket* bucket = BucketConfig(priority, originated);
  if (bucket == nullptr) {
    return true;
  }
  const size_t cls = static_cast<size_t>(priority);
  const SimTime now = sim_->now();
  if (!tokens_primed_[cls]) {
    // Buckets start full at first use, so startup bursts (the initial
    // interest flood) are not penalized.
    tokens_primed_[cls] = true;
    tokens_[cls] = bucket->burst_bytes;
    tokens_refilled_at_[cls] = now;
  } else {
    const double elapsed_s = DurationToSeconds(now - tokens_refilled_at_[cls]);
    tokens_[cls] =
        std::min(bucket->burst_bytes, tokens_[cls] + elapsed_s * bucket->rate_bytes_per_s);
    tokens_refilled_at_[cls] = now;
  }
  if (tokens_[cls] < bytes) {
    return false;
  }
  tokens_[cls] -= bytes;
  return true;
}

void CsmaMac::TraceDrop(const Fragment& fragment, int64_t reason) {
  if (sim_->tracing()) {
    sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kMacDrop, endpoint_->node_id(),
                           kBroadcastId,
                           (static_cast<uint64_t>(fragment.src) << 32) | fragment.message_seq,
                           reason});
  }
}

MacResult CsmaMac::AdmitMessage(MacPriority priority, const std::vector<Fragment>& fragments,
                                bool originated) {
  if (fragments.empty()) {
    return MacResult::kQueued;
  }
  double wire_bytes = 0.0;
  for (const Fragment& fragment : fragments) {
    wire_bytes += static_cast<double>(fragment.WireSize());
  }
  const uint64_t packet =
      (static_cast<uint64_t>(fragments.front().src) << 32) | fragments.front().message_seq;

  // B3: per-class token-bucket rate limiting over the message's on-air bytes.
  if (!TryWithdrawTokens(priority, originated, wire_bytes)) {
    ++stats_.drops_rate_limited;
    if (sim_->tracing()) {
      sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kMacRateLimited, endpoint_->node_id(),
                             kBroadcastId, packet,
                             static_cast<int64_t>(static_cast<uint8_t>(priority))});
    }
    return MacResult::kDroppedRateLimited;
  }
  return MacResult::kQueued;
}

void CsmaMac::PushFrame(Fragment fragment) {
  if (queue_size_ == queue_.size()) {
    // Full (or never used): unroll into a ring twice the size, or four
    // slots to start. Enqueue's limit check bounds the growth.
    std::vector<Fragment> grown(queue_.empty() ? 4 : 2 * queue_.size());
    for (size_t i = 0; i < queue_size_; ++i) {
      grown[i] = std::move(queue_[(queue_head_ + i) & (queue_.size() - 1)]);
    }
    queue_.swap(grown);
    queue_head_ = 0;
  }
  queue_[(queue_head_ + queue_size_) & (queue_.size() - 1)] = std::move(fragment);
  ++queue_size_;
}

Fragment CsmaMac::PopFrame() {
  Fragment front = std::move(queue_[queue_head_]);
  queue_head_ = (queue_head_ + 1) & (queue_.size() - 1);
  --queue_size_;
  return front;
}

MacResult CsmaMac::Enqueue(Fragment fragment) {
  if (queue_size_ >= config_.queue_limit) {
    ++stats_.drops_queue_full;
    TraceDrop(fragment, /*queue full=*/0);
    return MacResult::kDroppedQueueFull;
  }
  PushFrame(std::move(fragment));
  if (!transmitting_ && !attempt_pending_) {
    attempts_ = 0;
    ScheduleAttempt(rng_.NextInt(0, config_.initial_jitter));
  }
  return MacResult::kQueued;
}

void CsmaMac::ScheduleAttempt(SimDuration delay) {
  attempt_pending_ = true;
  pending_event_ = sim_->After(delay, [this] {
    attempt_pending_ = false;
    pending_event_ = kInvalidEventId;
    Attempt();
  });
}

void CsmaMac::Attempt() {
  if (queue_size_ == 0 || transmitting_) {
    return;
  }
  // Duty cycling: transmit only inside an awake window, and only if the
  // whole frame fits before the window closes (the receivers sleep at the
  // same synchronized instant).
  if (config_.duty_cycle < 1.0) {
    const SimTime now = sim_->now();
    const SimDuration airtime = FrameAirtime(FrontFrame().WireSize());
    const SimDuration awake =
        static_cast<SimDuration>(config_.duty_cycle * static_cast<double>(config_.duty_period));
    const SimTime window_start = (now / config_.duty_period) * config_.duty_period;
    const bool fits = InAwakeWindow(now, config_) && now + airtime <= window_start + awake;
    if (!fits) {
      const SimTime next = NextAwakeTime(InAwakeWindow(now, config_)
                                             ? window_start + config_.duty_period
                                             : now,
                                         config_);
      if (sim_->tracing()) {
        sim_->Trace(TraceEvent{now, TraceEventKind::kEnergyState, endpoint_->node_id(),
                               kBroadcastId, 0, /*tx deferred to wake=*/2});
      }
      // Contend at the window start with a fresh jitter so all deferred
      // senders don't collide at the window boundary.
      ScheduleAttempt(next - now +
                      rng_.NextInt(0, std::max<SimDuration>(config_.initial_jitter, 1)));
      return;
    }
  }
  if (channel_->CarrierBusyAt(endpoint_->node_id())) {
    ++attempts_;
    if (attempts_ >= config_.max_attempts) {
      // The channel never cleared; give up on this frame (no ARQ).
      ++stats_.drops_channel_busy;
      if (sim_->tracing()) {
        const Fragment& dropped = FrontFrame();
        sim_->Trace(TraceEvent{
            sim_->now(), TraceEventKind::kMacDrop, endpoint_->node_id(), kBroadcastId,
            (static_cast<uint64_t>(dropped.src) << 32) | dropped.message_seq, /*busy=*/1});
      }
      PopFrame();  // the returned frame, and its body, drop here
      attempts_ = 0;
      if (queue_size_ == 0) {
        return;
      }
    }
    const int cw = std::min(config_.cw_min_slots << std::min(attempts_, 10),
                            config_.cw_max_slots);
    const SimDuration backoff = config_.slot * rng_.NextInt(1, std::max(cw, 1));
    ScheduleAttempt(backoff);
    return;
  }
  // Channel clear: transmit the head-of-line frame.
  Fragment fragment = PopFrame();
  attempts_ = 0;
  const SimDuration airtime = FrameAirtime(fragment.WireSize());
  transmitting_ = true;
  ++stats_.frames_sent;
  stats_.bytes_sent += fragment.WireSize() + config_.frame_overhead_bytes;
  stats_.time_sending += airtime;
  if (sim_->tracing()) {
    sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kFragmentTx, endpoint_->node_id(),
                           fragment.dst,
                           (static_cast<uint64_t>(fragment.src) << 32) | fragment.message_seq,
                           static_cast<int64_t>(fragment.WireSize())});
  }
  channel_->Transmit(*endpoint_, std::move(fragment), airtime);
  sim_->After(airtime, [this] { FinishTransmit(); });
}

void CsmaMac::FinishTransmit() {
  transmitting_ = false;
  if (queue_size_ != 0 && !attempt_pending_) {
    ScheduleAttempt(config_.interframe_spacing +
                    rng_.NextInt(0, config_.initial_jitter));
  }
}

void CsmaMac::Reset() {
  queue_ = std::vector<Fragment>();  // frees the ring and every queued body
  queue_head_ = 0;
  queue_size_ = 0;
  if (pending_event_ != kInvalidEventId) {
    sim_->Cancel(pending_event_);
    pending_event_ = kInvalidEventId;
    attempt_pending_ = false;
  }
  attempts_ = 0;
}

}  // namespace diffusion
