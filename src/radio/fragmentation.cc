#include "src/radio/fragmentation.h"

#include <algorithm>

namespace diffusion {
namespace {

// Fragments a `bytes`-long message takes at `chunk` bytes each (an empty
// message still takes one).
size_t FragmentCount(size_t bytes, size_t chunk) {
  return bytes == 0 ? 1 : (bytes + chunk - 1) / chunk;
}

}  // namespace

std::vector<uint8_t> Fragment::Serialize() const {
  ByteWriter writer;
  writer.WriteU32(src);
  writer.WriteU32(dst);
  writer.WriteU32(message_seq);
  writer.WriteU16(index);
  writer.WriteU16(count);
  if (body) {
    // Materialize this fragment's slice of the shared body. Byte-identical
    // to the pre-overhaul path, which split the serialized message.
    std::vector<uint8_t> bytes;
    bytes.reserve(body->wire_size());
    body->AppendBytes(&bytes);
    writer.WriteU16(payload_len);
    writer.WriteRaw(bytes.data() + body_offset, payload_len);
    return writer.Take();
  }
  writer.WriteU16(static_cast<uint16_t>(payload.size()));
  writer.WriteRaw(payload.data(), payload.size());
  return writer.Take();
}

std::optional<Fragment> Fragment::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  Fragment fragment;
  uint16_t length;
  if (!reader.ReadU32(&fragment.src) || !reader.ReadU32(&fragment.dst) ||
      !reader.ReadU32(&fragment.message_seq) || !reader.ReadU16(&fragment.index) ||
      !reader.ReadU16(&fragment.count) || !reader.ReadU16(&length)) {
    return std::nullopt;
  }
  if (reader.remaining() < length || fragment.count == 0 || fragment.index >= fragment.count) {
    return std::nullopt;
  }
  fragment.payload.assign(bytes.end() - reader.remaining(),
                          bytes.end() - reader.remaining() + length);
  return fragment;
}

std::vector<Fragment> SplitMessage(NodeId src, NodeId dst, uint32_t message_seq,
                                   const std::vector<uint8_t>& payload, size_t max_payload) {
  std::vector<Fragment> fragments;
  const size_t chunk = std::max<size_t>(max_payload, 1);
  const size_t count = FragmentCount(payload.size(), chunk);
  if (count > kMaxFragments) {
    return fragments;
  }
  fragments.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Fragment fragment;
    fragment.src = src;
    fragment.dst = dst;
    fragment.message_seq = message_seq;
    fragment.index = static_cast<uint16_t>(i);
    fragment.count = static_cast<uint16_t>(count);
    const size_t begin = i * chunk;
    const size_t end = std::min(payload.size(), begin + chunk);
    fragment.payload.assign(payload.begin() + begin, payload.begin() + end);
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

std::vector<Fragment> SplitBody(NodeId src, NodeId dst, uint32_t message_seq, BodyRef body,
                                size_t max_payload) {
  std::vector<Fragment> fragments;
  const size_t total = body->wire_size();
  const size_t chunk = std::max<size_t>(max_payload, 1);
  const size_t count = FragmentCount(total, chunk);
  if (count > kMaxFragments) {
    return fragments;
  }
  fragments.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Fragment fragment;
    fragment.src = src;
    fragment.dst = dst;
    fragment.message_seq = message_seq;
    fragment.index = static_cast<uint16_t>(i);
    fragment.count = static_cast<uint16_t>(count);
    const size_t begin = i * chunk;
    const size_t end = std::min(total, begin + chunk);
    fragment.body = body;
    fragment.body_offset = static_cast<uint32_t>(begin);
    fragment.payload_len = static_cast<uint16_t>(end - begin);
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

std::vector<uint8_t> Reassembler::Completed::Bytes() const {
  if (!body) {
    return payload;
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(body->wire_size());
  body->AppendBytes(&bytes);
  return bytes;
}

std::optional<Reassembler::Completed> Reassembler::Add(const Fragment& fragment, SimTime now) {
  Purge(now);
  const Key key = MakeKey(fragment.src, fragment.message_seq);
  Partial& partial = pending_[key];
  if (partial.have.empty()) {
    partial.first_seen = now;
    partial.dst = fragment.dst;
    partial.count = fragment.count;
    partial.received = 0;
    partial.have.assign(fragment.count, false);
    if (fragment.body) {
      // Zero-copy stream: every fragment shares one body; track arrival
      // only. (A sender uses one form per message, so streams never mix.)
      partial.body = fragment.body;
    } else {
      partial.pieces.resize(fragment.count);
    }
  }
  if (fragment.count != partial.count || fragment.index >= partial.count ||
      static_cast<bool>(fragment.body) != static_cast<bool>(partial.body)) {
    // Inconsistent fragment stream (e.g. sender restarted its counter, or
    // switched forms mid-message); restart collection from this fragment.
    pending_.erase(key);
    return Add(fragment, now);
  }
  if (!partial.have[fragment.index]) {
    partial.have[fragment.index] = true;
    if (!fragment.body) {
      partial.pieces[fragment.index] = fragment.payload;
    }
    ++partial.received;
  }
  if (partial.received < partial.count) {
    return std::nullopt;
  }
  Completed completed;
  completed.src = fragment.src;
  completed.dst = partial.dst;
  if (partial.body) {
    completed.body = std::move(partial.body);
  } else {
    for (const std::vector<uint8_t>& piece : partial.pieces) {
      completed.payload.insert(completed.payload.end(), piece.begin(), piece.end());
    }
  }
  pending_.erase(key);
  return completed;
}

void Reassembler::Purge(SimTime now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.first_seen > timeout_) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace diffusion
