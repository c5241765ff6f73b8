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

std::vector<Fragment> SplitMessage(NodeId src, NodeId dst, uint32_t message_seq, BodyRef body,
                                   size_t max_payload) {
  std::vector<Fragment> fragments;
  const size_t total = body->wire_size();
  const size_t chunk = std::clamp<size_t>(max_payload, 1, kMaxFragmentPayload);
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
    // Every fragment of a message shares its body; track arrival only.
    partial.body = fragment.body;
  }
  if (fragment.count != partial.count || fragment.index >= partial.count) {
    // Inconsistent fragment stream (e.g. sender restarted its counter);
    // restart collection from this fragment.
    pending_.erase(key);
    return Add(fragment, now);
  }
  if (!partial.have[fragment.index]) {
    partial.have[fragment.index] = true;
    ++partial.received;
  }
  if (partial.received < partial.count) {
    return std::nullopt;
  }
  Completed completed;
  completed.src = fragment.src;
  completed.dst = partial.dst;
  completed.body = std::move(partial.body);
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
