// Node radio: the paper's "simple radio API that supports broadcast or
// unicast to immediate neighbors" (§4). Combines the CSMA MAC, 27-byte
// fragmentation, and reassembly, and keeps the per-node traffic/time
// accounting the evaluation section reports.

#ifndef SRC_RADIO_RADIO_H_
#define SRC_RADIO_RADIO_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/radio/channel.h"
#include "src/radio/fragmentation.h"
#include "src/radio/mac.h"
#include "src/radio/position.h"
#include "src/sim/simulator.h"

namespace diffusion {

struct RadioConfig {
  MacConfig mac;
  // "All messages are broken into several 27-byte fragments" (§6.1).
  size_t fragment_payload = 27;
  SimDuration reassembly_timeout = 10 * kSecond;
};

struct RadioStats {
  // Message-level accounting (diffusion payload bytes, the unit Figure 8
  // reports) — every hop's transmission counts.
  uint64_t messages_sent = 0;
  uint64_t message_bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t message_bytes_received = 0;
  // Fragment-level accounting.
  uint64_t fragments_sent = 0;
  uint64_t fragments_received = 0;
  uint64_t fragments_dropped = 0;  // queue overflow + persistent busy channel
  // Messages refused whole because they need more than kMaxFragments
  // fragments; they count nowhere else.
  uint64_t messages_refused = 0;
  // Radio-time accounting for the §6.1 energy model.
  SimDuration time_receiving = 0;
};

class Radio : public ChannelEndpoint {
 public:
  using ReceiveCallback =
      std::function<void(NodeId from, const std::vector<uint8_t>& payload)>;
  // Zero-copy delivery: completed body-form messages are handed over as the
  // shared WireBody instead of materialized bytes.
  using BodyCallback = std::function<void(NodeId from, const WireBody& body)>;

  Radio(Simulator* sim, Channel* channel, NodeId id, RadioConfig config = RadioConfig{});
  ~Radio() override;

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void SetReceiveCallback(ReceiveCallback callback) { receive_callback_ = std::move(callback); }
  // Optional: when set, body-form completions bypass byte materialization.
  // Byte-form completions (from senders using SendMessage) still arrive via
  // the ReceiveCallback, as do body-form ones if no BodyCallback is set.
  void SetBodyCallback(BodyCallback callback) { body_callback_ = std::move(callback); }

  // Sends `payload` to a neighbor (or kBroadcastId). The payload is
  // fragmented (copied into fragments before returning, so callers may reuse
  // the buffer); delivery is best-effort. `priority` feeds the MAC's
  // congestion drop policy and per-class rate limiter (irrelevant when
  // shaping is off). `originated` marks messages this node injects into the
  // network (vs forwarded transit), which originated_only token buckets use
  // for ingress policing. Returns false if every fragment was dropped at the
  // queue, or if the message needs more than kMaxFragments fragments (then
  // nothing is sent and RadioStats::messages_refused counts it).
  bool SendMessage(NodeId dst, const std::vector<uint8_t>& payload,
                   MacPriority priority = MacPriority::kData, bool originated = true);

  // Zero-copy SendMessage: fragments share `body` instead of copying byte
  // slices. Identical admission, airtime and accounting — body->wire_size()
  // stands in for payload.size() everywhere.
  bool SendBody(NodeId dst, BodyRef body, MacPriority priority = MacPriority::kData,
                bool originated = true);

  // Node failure injection. A dead radio neither sends nor receives.
  void Kill();
  void Revive();
  bool alive() const { return alive_; }

  const RadioStats& stats() const { return stats_; }
  const MacStats& mac_stats() const { return mac_.stats(); }
  SimDuration time_sending() const { return mac_.stats().time_sending; }

  // Registers this radio's counters/gauges ("radio.*", "mac.*") for its node
  // id. The radio must outlive collections from `registry`.
  void RegisterMetrics(MetricsRegistry* registry) const;

  // Fraction of time this radio's receiver is powered (its MAC duty cycle).
  double awake_fraction() const { return config_.mac.duty_cycle; }

  // ChannelEndpoint:
  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return alive_; }
  bool IsTransmitting() const override { return mac_.transmitting(); }
  bool IsAwake() const override { return InAwakeWindow(sim_->now(), config_.mac); }
  void OnFrameDelivered(const Fragment& fragment, SimDuration airtime) override;

 private:
  // Shared transmit tail: message accounting, admission, and per-fragment
  // enqueue and accounting. No fragments means the split refused the
  // message.
  bool EnqueueFragments(MacPriority priority, size_t message_bytes,
                        std::vector<Fragment> fragments, bool originated);

  Simulator* sim_;
  Channel* channel_;
  NodeId id_;
  RadioConfig config_;
  CsmaMac mac_;
  Reassembler reassembler_;
  ReceiveCallback receive_callback_;
  BodyCallback body_callback_;
  uint32_t next_message_seq_ = 1;
  bool alive_ = true;
  RadioStats stats_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_RADIO_H_
