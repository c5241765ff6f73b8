// Fragmentation and reassembly.
//
// The testbed radios carried small packets: "all messages are broken into
// several 27-byte fragments, loss of a single fragment results in loss of
// the whole message" (§6.1). Modelling this matters because it amplifies
// per-packet loss into message loss under congestion. The simulator counts
// those bytes but never copies them: each fragment is a byte range of the
// message's shared WireBody, and a completed message hands that body on.

#ifndef SRC_RADIO_FRAGMENTATION_H_
#define SRC_RADIO_FRAGMENTATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/radio/position.h"
#include "src/radio/wire_body.h"
#include "src/util/time.h"

namespace diffusion {

// One link-layer fragment of a diffusion message: a view of wire bytes
// [body_offset, body_offset + payload_len) of the message's shared body.
// Fragments only account for their bytes (MAC admission, airtime, traces);
// the receiver materializes them, if at all, from the completed body.
struct Fragment {
  NodeId src = 0;
  NodeId dst = kBroadcastId;
  uint32_t message_seq = 0;  // per-sender message counter
  uint16_t index = 0;
  uint16_t count = 1;
  // Transmit-side priority class for the MAC's congestion drop policy and
  // per-class rate limiting. Link metadata only — never on the wire.
  uint8_t priority = 1;  // MacPriority::kData
  BodyRef body;
  uint32_t body_offset = 0;
  uint16_t payload_len = 0;

  // Wire bytes of the fragment header (src + dst + seq + index + count + len).
  static constexpr size_t kHeaderBytes = 4 + 4 + 4 + 2 + 2 + 2;

  size_t WireSize() const { return kHeaderBytes + payload_len; }
};

// Fragment::count and Fragment::payload_len are 16 bits, so one message
// spans at most kMaxFragments fragments of at most kMaxFragmentPayload bytes.
inline constexpr size_t kMaxFragments = 0xffff;
inline constexpr size_t kMaxFragmentPayload = 0xffff;

// Splits `body` into fragments covering at most `max_payload` bytes each
// (capped at kMaxFragmentPayload); every fragment shares `body`. A
// zero-length body yields a single empty fragment. A body needing more than
// kMaxFragments fragments yields none: its count would not fit.
std::vector<Fragment> SplitMessage(NodeId src, NodeId dst, uint32_t message_seq, BodyRef body,
                                   size_t max_payload);

// Collects fragments until a message completes. Incomplete messages are
// purged after `timeout`; a message with a lost fragment therefore never
// surfaces, matching the no-ARQ radio.
//
// A receiver holds few partial messages at once, so they live in a flat
// vector searched linearly. A finished or purged partial keeps its storage
// for the next one, and a one-fragment message never becomes a partial:
// reassembly allocates nothing once the vector has grown.
class Reassembler {
 public:
  explicit Reassembler(SimDuration timeout) : timeout_(timeout) {}

  struct Completed {
    NodeId src;
    NodeId dst;
    BodyRef body;  // the message body the fragments shared
  };

  // Adds a fragment; returns the completed message if this was the last
  // missing piece. `now` drives timeout-based purging. A fragment whose
  // index is not below its count (a count of zero included) is refused:
  // nothing is kept and any partial it names is left as it was.
  std::optional<Completed> Add(const Fragment& fragment, SimTime now);

  // Drops partial messages older than the timeout.
  void Purge(SimTime now);

  // Drops every partial message (a dead radio keeps no reassembly state).
  void Clear();

  size_t pending() const { return live_; }

  // Heap bytes held: every partial slot, live or spare, with its
  // received-fragment bitmap. Bodies are shared with the sender's fragments
  // and pooled by the simulator, so they are not counted.
  size_t MemoryBytes() const;

 private:
  struct Partial {
    uint64_t key = 0;  // MakeKey(src, message_seq)
    SimTime first_seen = 0;
    NodeId dst = 0;
    uint16_t count = 0;
    uint16_t received = 0;
    std::vector<bool> have;
    BodyRef body;
  };
  static uint64_t MakeKey(NodeId src, uint32_t seq) {
    return (static_cast<uint64_t>(src) << 32) | seq;
  }
  // Swaps partial `i` past the live ones and releases its body.
  void Drop(size_t i);

  SimDuration timeout_;
  // partials_[0, live_) are pending, in no order; the rest are spare.
  std::vector<Partial> partials_;
  size_t live_ = 0;
};

}  // namespace diffusion

#endif  // SRC_RADIO_FRAGMENTATION_H_
