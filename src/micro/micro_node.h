// Micro-diffusion engine (paper §4.3).
//
// A bare subset of diffusion for motes with 8-bit CPUs and 8 KB of memory:
// "retaining only gradients, condensing attributes to a single tag, and
// supporting only limited filters ... statically configured to support 5
// active gradients and a cache of 10 packets of the 2 relevant bytes per
// packet." All protocol state here lives in fixed-size arrays; StateBytes()
// reports the engine's static footprint, which paper_claims' micro section
// checks against the paper's ~106-byte budget.

#ifndef SRC_MICRO_MICRO_NODE_H_
#define SRC_MICRO_MICRO_NODE_H_

#include <array>
#include <functional>

#include "src/micro/micro_wire.h"
#include "src/radio/radio.h"
#include "src/sim/simulator.h"

namespace diffusion {

struct MicroStats {
  uint64_t forwarded = 0;
  uint64_t delivered = 0;
  uint64_t cache_drops = 0;
  uint64_t gradient_table_full = 0;
  uint64_t filter_suppressed = 0;
};

class MicroNode {
 public:
  static constexpr size_t kMaxGradients = 5;
  static constexpr size_t kCacheEntries = 10;
  static constexpr size_t kMaxSubscriptions = 4;

  using DataCallback = std::function<void(MicroTag tag, int32_t value, NodeId origin)>;
  // The "limited filter": sees (tag, value) of data passing through; returns
  // false to suppress, and may rewrite the value in place.
  using TagFilter = std::function<bool(MicroTag tag, int32_t* value)>;

  MicroNode(Simulator* sim, Channel* channel, NodeId id, RadioConfig config = RadioConfig{});

  // Subscribes to a tag; floods a micro interest and refreshes it
  // periodically. Returns false when the subscription table is full.
  bool Subscribe(MicroTag tag, DataCallback callback);
  bool Unsubscribe(MicroTag tag);

  // Sends one reading for `tag` along gradients.
  bool SendData(MicroTag tag, int32_t value);

  void SetTagFilter(TagFilter filter) { filter_ = std::move(filter); }

  NodeId id() const { return id_; }
  Radio& radio() { return radio_; }
  const MicroStats& stats() const { return stats_; }

  // Count of currently used gradient slots.
  size_t ActiveGradients() const;

  // Static engine state footprint in bytes (gradient slots + packet cache +
  // counters). Excludes the host OS/radio, like the paper's 106-byte figure.
  static constexpr size_t StateBytes() {
    return kMaxGradients * sizeof(GradientSlot) + kCacheEntries * sizeof(uint16_t) +
           sizeof(uint8_t) /*cache cursor*/ + sizeof(uint32_t) /*seq*/;
  }

 private:
  struct GradientSlot {
    uint8_t used = 0;
    MicroTag tag = 0;
    NodeId neighbor = 0;
    uint32_t expires_s = 0;  // seconds, to keep the slot small
  };
  struct Subscription {
    bool used = false;
    MicroTag tag = 0;
    DataCallback callback;
  };

  void OnRadioReceive(NodeId from, const std::vector<uint8_t>& bytes);
  void HandleInterest(const MicroMessage& message, NodeId from);
  void HandleData(MicroMessage message, NodeId from);
  bool CacheCheckAndInsert(NodeId origin, uint32_t seq);
  void Transmit(const MicroMessage& message);
  void FloodInterest(MicroTag tag);
  void RefreshInterests();
  bool AddGradient(MicroTag tag, NodeId neighbor);
  bool HasGradient(MicroTag tag, NodeId exclude) const;

  Simulator* sim_;
  NodeId id_;
  Radio radio_;

  std::array<GradientSlot, kMaxGradients> gradients_{};
  std::array<uint16_t, kCacheEntries> cache_{};
  uint8_t cache_cursor_ = 0;
  uint32_t next_seq_ = 1;

  std::array<Subscription, kMaxSubscriptions> subscriptions_{};
  TagFilter filter_;
  SimDuration interest_refresh_ = 60 * kSecond;
  uint32_t gradient_lifetime_s_ = 150;
  MicroStats stats_;
};

}  // namespace diffusion

#endif  // SRC_MICRO_MICRO_NODE_H_
