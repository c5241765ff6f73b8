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
  // Receives each completed message as the body its fragments shared.
  using ReceiveCallback = std::function<void(NodeId from, const WireBody& body)>;

  Radio(Simulator* sim, Channel* channel, NodeId id, RadioConfig config = RadioConfig{});
  ~Radio() override;

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void SetReceiveCallback(ReceiveCallback callback) { receive_callback_ = std::move(callback); }

  // Sends `body` to a neighbor (or kBroadcastId), fragmented into views of
  // body->wire_size() bytes; delivery is best-effort. `priority` picks the
  // MAC's per-class rate limiter (irrelevant when shaping is off).
  // `originated` marks messages this node injects into the network (vs
  // forwarded transit), which originated_only token buckets use for ingress
  // policing. Returns false if every fragment was dropped at the
  // queue, or if the message needs more than kMaxFragments fragments (then
  // nothing is sent and RadioStats::messages_refused counts it).
  bool SendBody(NodeId dst, BodyRef body, MacPriority priority = MacPriority::kData,
                bool originated = true);

  // SendBody over a copy of `payload` in a pooled ByteBody.
  bool SendMessage(NodeId dst, const std::vector<uint8_t>& payload,
                   MacPriority priority = MacPriority::kData, bool originated = true) {
    return SendBody(dst, ByteBody::Make(&sim_->slot_pool(), payload), priority, originated);
  }

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
  double awake_fraction() const { return mac_.config().duty_cycle; }

  // Heap bytes held: the MAC's transmit ring and the reassembly partials
  // (src/util/memory_bytes.h).
  size_t MemoryBytes() const { return mac_.MemoryBytes() + reassembler_.MemoryBytes(); }

  // ChannelEndpoint:
  NodeId node_id() const override { return id_; }
  bool IsAlive() const override { return alive_; }
  bool IsTransmitting() const override { return mac_.transmitting(); }
  bool IsAwake() const override { return InAwakeWindow(sim_->now(), mac_.config()); }
  void OnFrameDelivered(const Fragment& fragment, SimDuration airtime) override;

 private:
  Simulator* sim_;
  Channel* channel_;
  NodeId id_;
  // The one RadioConfig field read after construction; the MAC keeps its
  // own MacConfig and the reassembler its timeout.
  size_t fragment_payload_;
  CsmaMac mac_;
  Reassembler reassembler_;
  ReceiveCallback receive_callback_;
  uint32_t next_message_seq_ = 1;
  bool alive_ = true;
  RadioStats stats_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_RADIO_H_
