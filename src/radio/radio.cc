#include "src/radio/radio.h"

namespace diffusion {

Radio::Radio(Simulator* sim, Channel* channel, NodeId id, RadioConfig config)
    : sim_(sim),
      channel_(channel),
      id_(id),
      fragment_payload_(config.fragment_payload),
      mac_(sim, channel, this, config.mac),
      reassembler_(config.reassembly_timeout) {
  channel_->Attach(this);
}

Radio::~Radio() { channel_->Detach(id_); }

bool Radio::SendBody(NodeId dst, BodyRef body, MacPriority priority, bool originated) {
  if (!alive_) {
    return false;
  }
  const size_t message_bytes = body->wire_size();
  std::vector<Fragment> fragments =
      SplitMessage(id_, dst, next_message_seq_, std::move(body), fragment_payload_);
  if (fragments.empty()) {
    ++stats_.messages_refused;  // too many fragments to number
    return false;
  }
  ++next_message_seq_;
  ++stats_.messages_sent;
  stats_.message_bytes_sent += message_bytes;
  for (Fragment& fragment : fragments) {
    fragment.priority = static_cast<uint8_t>(priority);
  }
  // Rate shaping admits whole messages: dropping a strict subset of a
  // message's fragments would spend airtime on a message that can never
  // reassemble.
  if (!IsQueued(mac_.AdmitMessage(priority, fragments, originated))) {
    stats_.fragments_dropped += fragments.size();
    return false;
  }
  bool any_queued = false;
  for (Fragment& fragment : fragments) {
    if (IsQueued(mac_.Enqueue(std::move(fragment)))) {
      ++stats_.fragments_sent;
      any_queued = true;
    } else {
      ++stats_.fragments_dropped;
    }
  }
  return any_queued;
}

void Radio::Kill() {
  alive_ = false;
  mac_.Reset();
  // Partial reassemblies die with the node: a frame's surviving fragments
  // must not complete a message across an outage.
  reassembler_.Clear();
  if (sim_->tracing()) {
    sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kEnergyState, id_, kBroadcastId, 0,
                           /*killed=*/0});
  }
}

void Radio::Revive() {
  alive_ = true;
  if (sim_->tracing()) {
    sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kEnergyState, id_, kBroadcastId, 0,
                           /*revived=*/1});
  }
}

void Radio::RegisterMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounter(id_, "radio.messages_sent",
                            [this] { return static_cast<double>(stats_.messages_sent); });
  registry->RegisterCounter(id_, "radio.message_bytes_sent",
                            [this] { return static_cast<double>(stats_.message_bytes_sent); });
  registry->RegisterCounter(id_, "radio.messages_received",
                            [this] { return static_cast<double>(stats_.messages_received); });
  registry->RegisterCounter(id_, "radio.fragments_sent",
                            [this] { return static_cast<double>(stats_.fragments_sent); });
  registry->RegisterCounter(id_, "radio.fragments_received",
                            [this] { return static_cast<double>(stats_.fragments_received); });
  registry->RegisterCounter(id_, "radio.fragments_dropped",
                            [this] { return static_cast<double>(stats_.fragments_dropped); });
  registry->RegisterGauge(id_, "radio.time_receiving_s", [this] {
    return DurationToSeconds(stats_.time_receiving);
  });
  registry->RegisterGauge(id_, "radio.time_sending_s",
                          [this] { return DurationToSeconds(time_sending()); });
  registry->RegisterCounter(id_, "mac.frames_sent",
                            [this] { return static_cast<double>(mac_.stats().frames_sent); });
  registry->RegisterCounter(id_, "mac.bytes_sent",
                            [this] { return static_cast<double>(mac_.stats().bytes_sent); });
  registry->RegisterCounter(id_, "mac.drops_queue_full", [this] {
    return static_cast<double>(mac_.stats().drops_queue_full);
  });
  registry->RegisterCounter(id_, "mac.drops_channel_busy", [this] {
    return static_cast<double>(mac_.stats().drops_channel_busy);
  });
  registry->RegisterCounter(id_, "mac.drops_rate_limited", [this] {
    return static_cast<double>(mac_.stats().drops_rate_limited);
  });
}

void Radio::OnFrameDelivered(const Fragment& fragment, SimDuration airtime) {
  if (!alive_) {
    return;
  }
  stats_.time_receiving += airtime;
  if (fragment.dst != kBroadcastId && fragment.dst != id_) {
    // Overheard unicast to someone else; the radio spent the energy but the
    // frame is not ours.
    return;
  }
  ++stats_.fragments_received;
  if (sim_->tracing()) {
    sim_->Trace(TraceEvent{sim_->now(), TraceEventKind::kFragmentRx, id_, fragment.src,
                           (static_cast<uint64_t>(fragment.src) << 32) | fragment.message_seq,
                           static_cast<int64_t>(fragment.index)});
  }
  std::optional<Reassembler::Completed> completed = reassembler_.Add(fragment, sim_->now());
  if (!completed.has_value()) {
    return;
  }
  ++stats_.messages_received;
  stats_.message_bytes_received += completed->body->wire_size();
  if (receive_callback_) {
    receive_callback_(completed->src, *completed->body);
  }
}

}  // namespace diffusion
