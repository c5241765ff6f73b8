// Shared broadcast channel with interference.
//
// The channel owns the propagation model and delivers every transmission to
// all reachable, living endpoints. Two transmissions that overlap in time at
// a receiver corrupt each other there (no capture effect), which is what
// produces the hidden-terminal losses the paper's testbed suffered. A node
// that is itself transmitting cannot receive (half-duplex).

#ifndef SRC_RADIO_CHANNEL_H_
#define SRC_RADIO_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/radio/fragmentation.h"
#include "src/radio/position.h"
#include "src/radio/propagation.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"
#include "src/util/thread_annotations.h"

namespace diffusion {

// A node's attachment point to the channel.
class ChannelEndpoint {
 public:
  virtual ~ChannelEndpoint() = default;
  virtual NodeId node_id() const = 0;
  virtual bool IsAlive() const = 0;
  virtual bool IsTransmitting() const = 0;
  // False while the radio sleeps in a duty-cycle off-window: nothing is
  // heard, no receive energy is spent.
  virtual bool IsAwake() const { return true; }
  // Called when a frame decodes successfully at this node. `airtime` is how
  // long the radio spent receiving it (for energy accounting).
  virtual void OnFrameDelivered(const Fragment& fragment, SimDuration airtime) = 0;

 private:
  friend class Channel;
  // This node's slot in the channel it was last attached to, recorded by
  // Channel::Attach so that Transmit indexes the sender (UINT32_MAX before
  // the first Attach).
  uint32_t channel_slot_ = UINT32_MAX;
};

// Observes every transmission as it starts. The sharded simulation core
// (src/radio/region_bridge.h) uses this to mirror border-crossing frames
// into other regions' channels without the channel knowing about regions.
class TransmitObserver {
 public:
  virtual ~TransmitObserver() = default;
  // `sender_slot` is the sender's slot in the observed channel: fixed per
  // node id for the channel's life, so an observer may key per-sender state
  // by it.
  virtual void OnTransmit(uint32_t sender_slot, NodeId sender, const Fragment& fragment,
                          SimTime start, SimDuration duration) = 0;
};

struct ChannelStats {
  uint64_t transmissions = 0;
  uint64_t receptions_attempted = 0;  // (tx, reachable receiver) pairs
  uint64_t collisions = 0;            // receptions lost to overlap/half-duplex
  uint64_t propagation_losses = 0;    // receptions lost to link quality
  uint64_t deliveries = 0;
};

// `a - b`, field-wise. Used for per-endpoint deltas across a reattach.
ChannelStats operator-(const ChannelStats& a, const ChannelStats& b);

// Thread-compatible: a channel (like the Simulator it schedules on) belongs
// to one region and is only touched by that region's owning worker inside a
// window. Cross-region traffic enters via DeliverRemote events the barrier
// thread schedules between windows — never by calling into another region's
// live channel.
class DIFFUSION_THREAD_COMPATIBLE Channel {
 public:
  Channel(Simulator* sim, std::unique_ptr<PropagationModel> propagation);

  // Attaches `endpoint` and records its node's slot in it. An endpoint is
  // attached to one channel at a time.
  void Attach(ChannelEndpoint* endpoint);

  // Detaches `node` and scrubs its in-flight receptions: transmissions still
  // on the air stop targeting it, so a node detached mid-flight neither
  // receives the frame nor counts toward collision/loss statistics — even if
  // a new endpoint re-attaches under the same id before they resolve. The
  // node's per-endpoint counters stay in its slot for a later Attach under
  // the same id (see NodeStats / NodeStatsSinceAttach).
  void Detach(NodeId node);

  // True if any in-flight transmission puts energy at `node` (including the
  // node's own transmission). Reachability is evaluated now, not at the
  // transmission's start, so a link severed mid-flight stops counting.
  bool CarrierBusyAt(NodeId node) const;

  // Puts `fragment` on the air from `sender`, which has been attached here
  // (it may have detached since), for `duration`. Reception outcomes
  // resolve when the transmission ends.
  void Transmit(const ChannelEndpoint& sender, Fragment fragment, SimDuration duration);

  // Installs (or clears, with nullptr) the transmission observer. Called for
  // every Transmit, after the transmission is on the air — i.e. on the
  // thread that owns this channel's region, which makes that thread the one
  // writer of the observer's outbox (src/radio/region_bridge.h). Install and
  // clear on the barrier/setup side only.
  void set_transmit_observer(TransmitObserver* observer) { transmit_observer_ = observer; }

  // Resolves a frame transmitted in another region against this channel's
  // endpoints: `sender` is not attached here, but the propagation model knows
  // its position, so reachability and link quality evaluate normally. The
  // frame arrives fully decoded-or-not at once (a receiver mid-reception of a
  // local frame loses the remote one to overlap, but the remote frame does
  // not retroactively corrupt the local one — the documented border
  // approximation of the sharded core). Receivers resolve in ascending node
  // id order, as for a local frame.
  void DeliverRemote(NodeId sender, const Fragment& fragment, SimDuration airtime);

  PropagationModel& propagation() { return *propagation_; }
  const ChannelStats& stats() const { return stats_; }
  Simulator& simulator() { return *sim_; }

  // Per-endpoint accounting: `transmissions` counts `node` as sender, the
  // reception fields count it as receiver. Counters survive a Detach/Attach
  // cycle (they live in the node's slot, which Detach keeps), so a node that
  // blacks out and returns keeps lifetime-accurate totals. Zeros for unknown
  // nodes.
  ChannelStats NodeStats(NodeId node) const;

  // The same counters measured from the node's most recent Attach only —
  // what recovery metrics want after a blackout, free of pre-fault history.
  ChannelStats NodeStatsSinceAttach(NodeId node) const;

  // Registers the channel-wide counters as global metrics ("channel.*").
  // The channel must outlive collections from `registry`.
  void RegisterMetrics(MetricsRegistry* registry) const;

  // Heap bytes held by the channel's own state: the id -> slot table, the
  // slots with their in-air entries and receiver lists, the transmission
  // slabs with their reception vectors, and the recycled ones
  // (src/util/memory_bytes.h). The propagation model reports its own.
  size_t MemoryBytes() const;

 private:
  struct Reception {
    uint32_t slot;  // the receiver's index into slots_
    bool corrupted;
    // Set when the receiver detached mid-flight: the reception resolves to
    // nothing (no delivery, no stats).
    bool cancelled = false;
  };
  struct ActiveTx {
    NodeId sender;
    Fragment fragment;
    SimTime start;
    SimDuration duration;
    std::vector<Reception> receptions;
  };

  void FinishTransmit(uint64_t tx_id);

  // The outcome every reception shares, local or remote: a corrupted
  // reception is a collision; otherwise one draw against the link's delivery
  // probability at `link_time` decides between a propagation loss and
  // delivery. Counts and traces the outcome. OnFrameDelivered may Transmit
  // and reallocate slots_, so callers index slots_ afresh after each call.
  void ResolveReception(uint32_t slot, NodeId sender, const Fragment& fragment,
                        SimDuration airtime, SimTime link_time, bool corrupted);

  // Transmission ids are (generation << 32) | (slot + 1) into tx_slabs_, a
  // slot-and-generation slab (no hash-node allocation per frame; reception
  // vectors keep their capacity across reuse via recycled_receptions_).
  uint64_t AllocTx();
  ActiveTx* ResolveTx(uint64_t tx_id);

  // One sender's cached receivers: the slots of every attached endpoint
  // other than the sender that the propagation model Reaches, in ascending
  // node id order. Reception order drives the RNG draws in ResolveReception,
  // so one order serves local and remote senders alike, whatever order the
  // model or slots_ produce. Liveness, awake and half-duplex stay per-frame
  // checks. A list is valid while the channel's attach epoch and the model's
  // reach version both match the ones it was built at; otherwise the next
  // use rebuilds it, probing only the model's ReachCandidates when it offers
  // them and every slot when it does not.
  struct ReceiverList {
    uint64_t epoch = 0;
    uint64_t reach_version = 0;
    std::vector<uint32_t> receivers;  // indices into slots_
  };

  // Per-node state, as receiver and as sender. Slots are assigned once per
  // node id, at its first Attach or first remote frame, and survive
  // detach/reattach, so the counters do too; in_air and the list keep their
  // capacity. Attach hands the slot to the endpoint, so a local frame finds
  // its sender by index. The id -> slot map is consulted at Attach, Detach,
  // once per remote frame and once per candidate in a list build, so its
  // cost is independent of the largest node id and nothing on the local
  // frame or per-reception path looks it up.
  struct ReceiverSlot {
    NodeId node = 0;
    ChannelEndpoint* endpoint = nullptr;  // null while detached
    std::vector<std::pair<uint64_t, size_t>> in_air;  // (tx id, reception idx)
    ChannelStats stats;        // lifetime counters (NodeStats)
    ChannelStats attach_base;  // stats at the latest Attach
    ReceiverList list;         // this node's receivers when it sends
  };
  uint32_t SlotIndex(NodeId node);

  // Returns the list of the sender in slot `sender_slot`, rebuilding it first
  // if stale. The reference is into slots_, which a new slot reallocates:
  // a caller that can reenter the channel while iterating must index.
  const std::vector<uint32_t>& ReceiversOf(uint32_t sender_slot);

  Simulator* sim_;
  std::unique_ptr<PropagationModel> propagation_;
  TransmitObserver* transmit_observer_ = nullptr;
  uint64_t epoch_ = 1;  // bumped by Attach and Detach
  std::vector<NodeId> candidates_;  // list-build scratch
  Rng rng_;
  // The one id-keyed table: node id -> index into slots_. Looked up, never
  // iterated, so nothing depends on its layout.
  std::unordered_map<NodeId, uint32_t> slot_of_;
  std::vector<ReceiverSlot> slots_;
  struct TxSlab {
    ActiveTx tx;
    uint32_t generation = 0;
    bool live = false;
  };
  std::vector<TxSlab> tx_slabs_;
  std::vector<uint32_t> free_tx_slots_;
  std::vector<std::vector<Reception>> recycled_receptions_;
  ChannelStats stats_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_CHANNEL_H_
