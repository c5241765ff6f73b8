// Flight-recorder tracing (paper §7).
//
// "We were repeatedly challenged by the difficulty in understanding what was
// going on in a network of dozens of physically distributed nodes." The trace
// subsystem answers that with a typed event stream covering the diffusion
// lifecycle (interests, gradients, exploratory vs. data forwards,
// reinforcements, duplicate suppression) and the radio substrate (fragment
// tx/rx, collisions, propagation losses, MAC drops, energy state changes).
//
// Tracing is zero-cost when disabled: every emit site guards on
// Simulator::tracing() (one pointer test) before constructing an event, so a
// run without a sink pays nothing beyond that branch.

#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/radio/position.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace diffusion {

enum class TraceEventKind : uint8_t {
  // Diffusion lifecycle. `packet` is Message::PacketId() (origin<<32 | seq).
  kInterestSent = 0,   // interest transmitted (originated or re-flooded)
  kInterestReceived,   // interest arrived from `peer`
  kGradientCreated,    // new gradient toward `peer`
  kGradientReinforced, // gradient toward `peer` marked reinforced
  kGradientNegativelyReinforced,  // gradient toward `peer` degraded
  kGradientExpired,    // gradient toward `peer` aged out
  kExploratoryForward, // exploratory data transmitted (value = body bytes)
  kDataForward,        // regular data transmitted (value = body bytes)
  kDataReceived,       // data arrived from `peer` (value = 1 if exploratory)
  kDataDelivered,      // data handed to local subscriptions (value = count)
  kReinforcementSent,  // value = +1 positive, -1 negative
  kReinforcementReceived,  // value = +1 positive, -1 negative
  kDuplicateSuppressed,    // packet already in the duplicate cache
  kFilterSuppressed,       // an aggregation filter absorbed the message
  kStaleFilterReinjected,  // FilterApi::SendMessage with a removed handle
                           // (value = the stale handle)

  // Radio substrate. `packet` is the link-layer message id
  // (fragment.src<<32 | fragment.message_seq).
  kFragmentTx,       // frame on the air (value = wire bytes)
  kFragmentRx,       // frame decoded at this node (value = fragment index)
  kCollision,        // reception at this node lost to overlap/half-duplex
  kPropagationLoss,  // reception at this node lost to link quality
  kMacDrop,          // value = 0 queue overflow, 1 persistent busy channel
  kEnergyState,      // value = 0 killed, 1 revived, 2 tx deferred to wake

  // Fault injection (src/fault). `node` is the primary target (or the `from`
  // end of a link event), `peer` the secondary target (`to` end), and `value`
  // the FaultEventKind that executed.
  kFaultInjected,

  // Traffic shaping (TrafficPolicy / MacShaping). Appended after the
  // original kinds so pre-existing traces keep their numeric values.
  kMacRateLimited,  // message dropped, token bucket empty (value = class)
};

// Number of TraceEventKind values. A kind appended to the enum must become
// the last one named here; trace.cc checks its name table against it.
inline constexpr size_t kTraceEventKindCount =
    static_cast<size_t>(TraceEventKind::kMacRateLimited) + 1;

// Stable snake_case name ("interest_sent", ...) used by the JSONL export.
const char* TraceEventKindName(TraceEventKind kind);

// Inverse of TraceEventKindName. Returns false for unknown names.
bool TraceEventKindFromName(const std::string& name, TraceEventKind* kind);

// One recorded event. `node` is where it happened; `peer` is the other party
// when there is one (sender of a received message, reinforced neighbor) and
// kBroadcastId otherwise. `value` is the kind-specific scalar documented
// above.
struct TraceEvent {
  SimTime when = 0;
  TraceEventKind kind = TraceEventKind::kInterestSent;
  NodeId node = 0;
  NodeId peer = kBroadcastId;
  uint64_t packet = 0;
  int64_t value = 0;

  bool operator==(const TraceEvent& other) const {
    return when == other.when && kind == other.kind && node == other.node &&
           peer == other.peer && packet == other.packet && value == other.value;
  }
};

// Receives every event of a traced run, in simulation-time order. Sink
// implementations are thread-compatible, not thread-safe: a sink belongs to
// one simulator (region or replicate) at a time. The sharded engine gives
// every region a private MemoryTraceSink and touches the merged sink only on
// the barrier thread; ReplicationPool buffers per replicate and merges after
// the join.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// In-memory sink for tests and the monitor's packet-trace queries.
class DIFFUSION_THREAD_COMPATIBLE MemoryTraceSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const { return events_; }

  // Every event carrying `packet`, in recording (= sim time) order.
  std::vector<TraceEvent> EventsForPacket(uint64_t packet) const;

  void Clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

// Streaming trace fingerprint: FNV-1a folded over every event field, so two
// runs can be compared without buffering either trace. The final value is
// truncated to 53 bits so it survives a JSON double round-trip exactly (the
// bench files store it as a number).
inline constexpr uint64_t kTraceFingerprintSeed = 1469598103934665603ULL;

inline uint64_t FoldTraceEvent(uint64_t hash, const TraceEvent& event) {
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(event.when));
  mix(static_cast<uint64_t>(event.kind));
  mix(event.node);
  mix(event.peer);
  mix(event.packet);
  mix(static_cast<uint64_t>(event.value));
  return hash;
}

inline uint64_t TruncateTraceFingerprint(uint64_t hash) { return hash & ((1ULL << 53) - 1); }

// Sink that folds the stream into one number as it arrives — constant
// memory, so a multi-million-event run (bench/parallel_scaling's 10k-node
// world) can assert byte-identical traces across thread counts without
// holding any of them.
class DIFFUSION_THREAD_COMPATIBLE FingerprintTraceSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override {
    hash_ = FoldTraceEvent(hash_, event);
    ++count_;
  }

  uint64_t fingerprint() const { return TruncateTraceFingerprint(hash_); }
  uint64_t count() const { return count_; }

 private:
  uint64_t hash_ = kTraceFingerprintSeed;
  uint64_t count_ = 0;
};

// Duplicates every event to two sinks (e.g. a JSONL writer plus an in-memory
// buffer for live queries). Either may be null.
class TeeTraceSink : public TraceSink {
 public:
  TeeTraceSink(TraceSink* first, TraceSink* second) : first_(first), second_(second) {}

  void OnEvent(const TraceEvent& event) override {
    if (first_ != nullptr) {
      first_->OnEvent(event);
    }
    if (second_ != nullptr) {
      second_->OnEvent(event);
    }
  }

 private:
  TraceSink* first_;
  TraceSink* second_;
};

}  // namespace diffusion

#endif  // SRC_TRACE_TRACE_H_
