// Fragmentation and reassembly.
//
// The testbed radios carried small packets: "all messages are broken into
// several 27-byte fragments, loss of a single fragment results in loss of
// the whole message" (§6.1). Modelling this matters because it amplifies
// per-packet loss into message loss under congestion.

#ifndef SRC_RADIO_FRAGMENTATION_H_
#define SRC_RADIO_FRAGMENTATION_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/radio/position.h"
#include "src/radio/wire_body.h"
#include "src/util/byte_buffer.h"
#include "src/util/time.h"

namespace diffusion {

// One link-layer fragment of a diffusion message. Carries either a byte
// slice (`payload`, the form micro nodes send) or a view into a shared
// zero-copy body (`body` + `body_offset`/`payload_len`, the form full
// diffusion nodes send). Both forms report identical wire sizes, so
// MAC admission, airtime and every traced byte count are unchanged.
struct Fragment {
  NodeId src = 0;
  NodeId dst = kBroadcastId;
  uint32_t message_seq = 0;  // per-sender message counter
  uint16_t index = 0;
  uint16_t count = 1;
  // Transmit-side priority class for the MAC's congestion drop policy and
  // per-class rate limiting. Link metadata only — never serialized.
  uint8_t priority = 1;  // MacPriority::kData
  std::vector<uint8_t> payload;

  // Zero-copy form: this fragment covers body bytes
  // [body_offset, body_offset + payload_len). `payload` stays empty.
  BodyRef body;
  uint32_t body_offset = 0;
  uint16_t payload_len = 0;

  // Wire bytes of the fragment header (src + dst + seq + index + count + len).
  static constexpr size_t kHeaderBytes = 4 + 4 + 4 + 2 + 2 + 2;

  size_t WireSize() const { return kHeaderBytes + (body ? payload_len : payload.size()); }

  std::vector<uint8_t> Serialize() const;
  static std::optional<Fragment> Deserialize(const std::vector<uint8_t>& bytes);
};

// Fragment::count is 16 bits, so one message spans at most this many
// fragments.
inline constexpr size_t kMaxFragments = 0xffff;

// Splits `payload` into fragments carrying at most `max_payload` bytes each.
// A zero-length payload yields a single empty fragment. A payload needing
// more than kMaxFragments fragments yields none: its count would not fit.
std::vector<Fragment> SplitMessage(NodeId src, NodeId dst, uint32_t message_seq,
                                   const std::vector<uint8_t>& payload, size_t max_payload);

// Zero-copy SplitMessage: fragments reference `body` instead of copying byte
// slices. Fragment boundaries (and the kMaxFragments limit) are identical to
// SplitMessage over the body's encoding.
std::vector<Fragment> SplitBody(NodeId src, NodeId dst, uint32_t message_seq, BodyRef body,
                                size_t max_payload);

// Collects fragments until a message completes. Incomplete messages are
// purged after `timeout`; a message with a lost fragment therefore never
// surfaces, matching the no-ARQ radio.
class Reassembler {
 public:
  explicit Reassembler(SimDuration timeout) : timeout_(timeout) {}

  struct Completed {
    NodeId src;
    NodeId dst;
    // Byte-path completion: the reassembled payload. Empty for zero-copy
    // completions (see `body`).
    std::vector<uint8_t> payload;
    // Zero-copy completion: the shared message body. Null on the byte path.
    BodyRef body;

    // Bytes of the completed message, whichever form it took.
    size_t wire_bytes() const { return body ? body->wire_size() : payload.size(); }
    // The exact reassembled bytes; materializes zero-copy bodies on demand.
    std::vector<uint8_t> Bytes() const;
  };

  // Adds a fragment; returns the completed message if this was the last
  // missing piece. `now` drives timeout-based purging.
  std::optional<Completed> Add(const Fragment& fragment, SimTime now);

  // Drops partial messages older than the timeout.
  void Purge(SimTime now);

  // Drops every partial message (a dead radio keeps no reassembly state).
  void Clear() { pending_.clear(); }

  size_t pending() const { return pending_.size(); }

 private:
  struct Partial {
    SimTime first_seen;
    NodeId dst;
    uint16_t count;
    uint16_t received;
    std::vector<bool> have;
    std::vector<std::vector<uint8_t>> pieces;
    BodyRef body;  // set for zero-copy streams; pieces stay empty
  };
  using Key = uint64_t;
  static Key MakeKey(NodeId src, uint32_t seq) { return (static_cast<uint64_t>(src) << 32) | seq; }

  SimDuration timeout_;
  std::unordered_map<Key, Partial> pending_;
};

}  // namespace diffusion

#endif  // SRC_RADIO_FRAGMENTATION_H_
