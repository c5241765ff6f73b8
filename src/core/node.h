// DiffusionNode: one sensor node's diffusion stack.
//
// Implements the paper's two public APIs on top of the radio substrate:
//
//   Figure 4 (publish/subscribe): subscribe / unsubscribe / publish /
//   unpublish / send. Subscriptions flood interests and set up gradients;
//   published data flows along (reinforced) gradients; "if there are no
//   active subscriptions, published data does not leave the node."
//
//   Figure 5 (filters): addFilter / removeFilter / sendMessage /
//   sendMessageToNext. Filters form a priority chain; every message entering
//   the node is offered to the highest-priority matching filter, which may
//   drop it, mutate it, emit new messages, or pass it on. The diffusion core
//   is the implicit lowest-priority element of the chain.
//
// The core itself implements §3.1: task-aware interest handling, gradient
// setup, exploratory data, positive and negative reinforcement, duplicate/
// loop suppression, and periodic interest refresh.

#ifndef SRC_CORE_NODE_H_
#define SRC_CORE_NODE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/api_result.h"
#include "src/core/config.h"
#include "src/core/data_cache.h"
#include "src/core/gradient_table.h"
#include "src/core/handle.h"
#include "src/core/match_index.h"
#include "src/core/message.h"
#include "src/core/node_options.h"
#include "src/naming/attribute.h"
#include "src/naming/attribute_set.h"
#include "src/naming/keys.h"
#include "src/radio/radio.h"
#include "src/sim/simulator.h"

namespace diffusion {

class DiffusionNode;

// Capabilities handed to filter callbacks (Figure 5). Filters get "access to
// internal information about diffusion, including gradients and lists of
// neighbor nodes" (§3.3).
class FilterApi {
 public:
  explicit FilterApi(DiffusionNode* node) : node_(node) {}

  NodeId node_id() const;
  SimTime now() const;

  // Passes `message` on down the filter chain, below the priority of the
  // filter identified by `handle`; reaches the diffusion core if no lower
  // filter matches.
  void SendMessage(Message message, FilterHandle handle);

  // Hands `message` directly to the diffusion core for routing/delivery,
  // bypassing the rest of the chain.
  void SendMessageToNext(Message message);

  // Transmits `message` directly to a specific neighbor.
  void SendToNeighbor(Message message, NodeId neighbor);

  // Allocates a fresh origin sequence number for messages the filter creates.
  uint32_t NewOriginSeq();

  GradientTable& gradients();
  const std::vector<NodeId>& Neighbors() const;

 private:
  DiffusionNode* node_;
};

struct NodeStats {
  uint64_t messages_sent = 0;      // diffusion transmissions (per next-hop)
  uint64_t bytes_sent = 0;         // diffusion bytes sent — the Figure 8 unit
  uint64_t interests_originated = 0;
  uint64_t data_originated = 0;
  uint64_t messages_forwarded = 0;
  uint64_t data_delivered_local = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t decode_failures = 0;
  // Transmissions refused because the message does not fit the wire
  // encoding (FitsWire): nothing is sent, nothing counts as sent.
  uint64_t messages_refused = 0;
  uint64_t reinforcements_sent = 0;
  uint64_t negative_reinforcements_sent = 0;
  // FilterApi::SendMessage calls with a handle that is no longer registered
  // (usually a filter re-injecting after removing itself).
  uint64_t stale_filter_reinjections = 0;
  // Traffic shaping (zero unless the corresponding TrafficPolicy layer is on).
  uint64_t transmits_jittered = 0;  // originated sends delayed by TxJitterPolicy
};

// The heap bytes one node owns, by structure.
struct NodeMemory {
  size_t gradients = 0;
  size_t data_cache = 0;
  size_t match_indexes = 0;  // zero until a filter or subscription is added
  size_t other = 0;          // handle maps, neighbour list, pending transmits
  size_t radio = 0;          // MAC transmit ring and reassembly partials

  size_t total() const { return gradients + data_cache + match_indexes + other + radio; }
};

class DiffusionNode {
 public:
  // Invoked with the attribute set of a matching data (or interest) message.
  using DataCallback = std::function<void(const AttributeVector& attrs)>;
  // Invoked with a mutable message and the filter capabilities object.
  using FilterCallback = std::function<void(Message& message, FilterApi& api)>;

  // The one constructor: every subsystem's knobs hang off NodeOptions
  // (diffusion, radio, mac, traffic), all defaulting to the paper-faithful
  // configuration. `NodeOptions{}` reproduces the seed behavior exactly.
  DiffusionNode(Simulator* sim, Channel* channel, NodeId id, NodeOptions options = NodeOptions{});

  ~DiffusionNode();

  DiffusionNode(const DiffusionNode&) = delete;
  DiffusionNode& operator=(const DiffusionNode&) = delete;

  // ---- Figure 4: publish/subscribe API ----
  //
  // Handles are distinct opaque types per kind — passing a FilterHandle to
  // Unsubscribe is a compile error. Teardown/send calls return ApiResult so
  // "data stayed local" and "bad handle" are distinguishable; ApiResult is a
  // [[nodiscard]] type, and the handle-returning registration calls are
  // [[nodiscard]] too (losing a handle leaks the subscription/publication/
  // filter — nothing can ever tear it down).

  // Subscribes to data matching `attrs`. Floods an interest (and re-floods
  // every kInterestRefresh) unless the subscription is for interests
  // themselves (contains a formal on the class attribute matching
  // "class IS interest"), which only watches locally arriving interests.
  [[nodiscard]] SubscriptionHandle Subscribe(AttributeSet attrs, DataCallback callback);
  ApiResult Unsubscribe(SubscriptionHandle handle);

  // Declares data this node can produce. The attrs must be actuals
  // describing the data (a "class IS data" actual is appended if absent).
  [[nodiscard]] PublicationHandle Publish(AttributeSet attrs);
  ApiResult Unpublish(PublicationHandle handle);

  // Sends one data message: the publication's attrs plus `extra_attrs`.
  // Returns kNoMatchingInterest when no matching interest exists anywhere
  // locally (the data does not leave the node, §4.1).
  ApiResult Send(PublicationHandle handle, const AttributeVector& extra_attrs);

  // ---- Figure 5: filter API ----

  // Registers an in-network processing filter. The filter triggers on every
  // message entering the node whose actuals satisfy `attrs`' formals
  // (one-way match), highest priority first; it then owns the message and
  // must re-inject it (FilterApi::SendMessage) for processing to continue.
  [[nodiscard]] FilterHandle AddFilter(AttributeSet attrs, int16_t priority,
                                       FilterCallback callback);
  ApiResult RemoveFilter(FilterHandle handle);

  // ---- introspection / experiment support ----

  NodeId id() const { return id_; }
  Simulator& simulator() { return *sim_; }
  Radio& radio() { return radio_; }
  GradientTable& gradients() { return gradients_; }
  const NodeStats& stats() const { return stats_; }
  const DiffusionConfig& config() const { return config_; }
  const TrafficPolicy& traffic() const { return traffic_; }
  // Every node heard from since boot, ascending.
  const std::vector<NodeId>& Neighbors() const { return neighbors_; }

  // Heap bytes this node owns, by structure (src/util/memory_bytes.h). The
  // node object itself is its holder's to count.
  NodeMemory MemoryBytes() const;

  // Registers this node's named counters/gauges — diffusion core
  // ("diffusion.*"), radio and MAC ("radio.*", "mac.*"), gradient table, and
  // the §6.1 energy model ("energy.relative") — into `registry`. The node
  // must outlive collections from the registry.
  void RegisterMetrics(MetricsRegistry* registry);

  // ---- node failure injection (see src/fault) ----

  // Stops the node: the radio goes dark and every event the node has pending
  // (jittered forwards, interest refreshes) is cancelled through the
  // scheduler's lazy-compaction cancel path, so a killed node's captured
  // state is released rather than parked until its timers would have fired.
  void Kill();

  // Brings a killed node back with *warm* state (gradients, caches and
  // neighbors as they were): a transient outage, not a restart. Interest
  // refreshes resume on their normal period.
  void Revive();

  // Brings the node back *cold*, as after a power-cycle: gradients, the
  // duplicate cache, neighbor memory and any in-flight radio state are
  // dropped, then every application subscription re-floods its interest and
  // re-draws gradients from scratch. Publications, filters and local
  // subscriptions survive (they are application state, re-installed by the
  // app's boot path). Origin sequence numbers keep counting up — real
  // deployments derive them from a clock, and reusing them would make every
  // other node's duplicate cache suppress the rebooted node's first packets.
  void Reboot();

  bool alive() const { return alive_; }

 private:
  friend class FilterApi;

  struct Subscription {
    SubscriptionHandle handle = kInvalidHandle;
    AttributeSet attrs;           // as given by the application
    AttributeSet interest_attrs;  // with the implicit class actual
    DataCallback callback;
    bool local_only = false;  // subscription *for* interests
    EventId refresh_event = kInvalidEventId;
    EventId duration_event = kInvalidEventId;
  };

  struct Publication {
    PublicationHandle handle = kInvalidHandle;
    AttributeSet attrs;
    uint64_t send_count = 0;
  };

  struct Filter {
    FilterHandle handle = kInvalidHandle;
    AttributeSet attrs;
    int16_t priority = 0;
    FilterCallback callback;
  };

  // A completed radio message: a diffusion engine's MessageBody is used as
  // is; any other body is decoded from its bytes.
  void OnRadioReceive(NodeId from, const WireBody& body);
  // Receive tail once the message is decoded (trace, gradient expiry,
  // dispatch).
  void ReceiveDecoded(NodeId from, Message message);

  // Offers `message` to the highest-priority matching filter with priority
  // strictly below `below_priority`; falls through to the core.
  void DispatchToChain(Message message, int32_t below_priority);

  // The diffusion core (terminal element of the filter chain).
  void CoreProcess(Message& message);
  void ProcessInterest(Message& message);
  void ProcessData(Message& message);
  void ProcessPositiveReinforcement(Message& message);
  void ProcessNegativeReinforcement(Message& message);

  // Serializes and transmits to message.next_hop, with accounting.
  void TransmitMessage(const Message& message);

  // Transmits after Uniform(0, forward_delay_jitter) to desynchronize
  // concurrent forwarders of the same flood (hidden terminals).
  void TransmitAfterJitter(Message message);

  // TxJitterPolicy (B1): transmits after Uniform(0, window-for-type) when
  // the jitter layer is on; plain TransmitMessage otherwise. Used for
  // originated traffic (forwards already go through TransmitAfterJitter).
  void TransmitShaped(Message message);

  // Transmits `message` after `delay`, as a pending transmit that Kill and
  // the destructor cancel.
  void TransmitLater(SimDuration delay, Message message);

  // The TxJitterPolicy window for a message type (0 = transmit immediately).
  SimDuration JitterWindowFor(MessageType type) const;

  void FloodInterest(const Subscription& subscription);
  void ScheduleRefresh(SubscriptionHandle handle);

  // Sends a (positive or negative) reinforcement for `entry` to `neighbor`.
  void SendReinforcement(MessageType type, const InterestEntry& entry, NodeId neighbor);

  // Delivers data attrs to local subscriptions matching them.
  void DeliverLocalData(const Message& message);

  // True when a local publication can satisfy the interest in `entry`
  // (this node is a source for it).
  bool IsSourceFor(const InterestEntry& entry) const;

  uint32_t NextSeq() { return next_origin_seq_++; }

  Simulator* sim_;
  NodeId id_;
  DiffusionConfig config_;
  TrafficPolicy traffic_;
  Radio radio_;
  FilterApi filter_api_;

  GradientTable gradients_;
  DataCache seen_packets_;

  // Node-based maps: Subscription/Filter addresses stay stable, so the match
  // indexes below can hold pointers to their attribute sets.
  std::map<SubscriptionHandle, Subscription> subscriptions_;
  std::map<PublicationHandle, Publication> publications_;
  std::map<FilterHandle, Filter> filters_;

  // Candidate indexes over filters_/subscriptions_, discriminated on the
  // `class` attribute. Kept in sync by Add/Remove; DispatchToChain and
  // DeliverLocalData consult these instead of scanning the full chain. Each
  // is built by its first Insert, so a node that only relays holds neither;
  // every caller tests the map it indexes for emptiness first.
  std::unique_ptr<MatchIndex> filter_index_;
  std::unique_ptr<MatchIndex> subscription_index_;

  std::vector<NodeId> neighbors_;  // sorted
  // Scheduled transmits not yet run. A node has few at once, so a firing
  // transmit finds its own entry by token with a scan: no hash node and no
  // shared id holder per forwarded message.
  struct PendingTransmit {
    uint64_t token;
    EventId event;
  };
  std::vector<PendingTransmit> pending_transmits_;
  uint64_t next_transmit_token_ = 0;
  Rng rng_;

  uint32_t next_handle_ = 1;
  uint32_t next_origin_seq_ = 1;
  bool alive_ = true;
  // The first neighbors heard, also in neighbors_. They sit beside alive_,
  // which every receive reads, so a message from one of them finds its
  // sender known without reading neighbors_' heap array.
  uint8_t first_neighbor_count_ = 0;
  std::array<NodeId, 4> first_neighbors_{};
  NodeStats stats_;
};

}  // namespace diffusion

#endif  // SRC_CORE_NODE_H_
