#include "src/radio/fragmentation.h"

#include <algorithm>
#include <utility>

#include "src/util/memory_bytes.h"

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
  if (fragment.index >= fragment.count) {
    return std::nullopt;
  }
  if (now - oldest_ > timeout_) {
    Purge(now);
  }
  const uint64_t key = MakeKey(fragment.src, fragment.message_seq);
  size_t i = 0;
  while (i < live_ && partials_[i].key != key) {
    ++i;
  }
  if (i < live_ && partials_[i].count != fragment.count) {
    // Inconsistent fragment stream (e.g. sender restarted its counter);
    // restart collection from this fragment.
    Drop(i);
    i = live_;
  }
  if (fragment.count == 1) {
    return Completed{fragment.src, fragment.dst, fragment.body};
  }
  if (i == live_) {
    if (live_ == partials_.size()) {
      partials_.emplace_back();
    }
    Partial& fresh = partials_[live_++];
    fresh.key = key;
    fresh.first_seen = now;
    fresh.dst = fragment.dst;
    fresh.count = fragment.count;
    fresh.received = 0;
    fresh.bits = 0;
    if (fragment.count > kInlineFragments) {
      fresh.wide.assign((fragment.count + kInlineFragments - 1) / kInlineFragments, 0);
    }
    // Every fragment of a message shares its body; track arrival only.
    fresh.body = fragment.body;
    oldest_ = std::min(oldest_, now);
  }
  Partial& partial = partials_[i];
  uint64_t& word = partial.count <= kInlineFragments
                       ? partial.bits
                       : partial.wide[fragment.index / kInlineFragments];
  const uint64_t bit = uint64_t{1} << (fragment.index % kInlineFragments);
  if ((word & bit) == 0) {
    word |= bit;
    ++partial.received;
  }
  if (partial.received < partial.count) {
    return std::nullopt;
  }
  Completed completed{fragment.src, partial.dst, std::move(partial.body)};
  Drop(i);
  return completed;
}

void Reassembler::Purge(SimTime now) {
  oldest_ = INT64_MAX;
  for (size_t i = 0; i < live_;) {
    if (now - partials_[i].first_seen > timeout_) {
      Drop(i);
    } else {
      oldest_ = std::min(oldest_, partials_[i].first_seen);
      ++i;
    }
  }
}

size_t Reassembler::MemoryBytes() const {
  size_t bytes = VectorBytes(partials_);
  for (const Partial& partial : partials_) {
    bytes += VectorBytes(partial.wide);
  }
  return bytes;
}

void Reassembler::Clear() {
  while (live_ > 0) {
    Drop(live_ - 1);
  }
  oldest_ = INT64_MAX;
}

void Reassembler::Drop(size_t i) {
  --live_;
  if (i != live_) {
    std::swap(partials_[i], partials_[live_]);
  }
  partials_[live_].body.reset();
}

}  // namespace diffusion
