#include "src/core/data_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace diffusion {

DataCache::DataCache(size_t capacity) : capacity_(capacity) {
  assert(capacity < 0xffffffffu);
}

size_t DataCache::HomeSlot(uint64_t id) const {
  // Fibonacci hashing: packet ids differ mostly in their low (sequence)
  // bits, and the multiply spreads those into the top bits the shift keeps.
  return static_cast<size_t>((id * 0x9e3779b97f4a7c15ULL) >> table_shift_);
}

size_t DataCache::FindSlot(uint64_t id) const {
  if (table_.empty()) {
    return kNotFound;
  }
  const size_t mask = table_.size() - 1;
  for (size_t slot = HomeSlot(id);; slot = (slot + 1) & mask) {
    const uint32_t entry = table_[slot];
    if (entry == 0) {
      return kNotFound;
    }
    if (ring_[entry - 1] == id) {
      return slot;
    }
  }
}

void DataCache::TableInsert(uint64_t id, uint32_t position) {
  const size_t mask = table_.size() - 1;
  size_t slot = HomeSlot(id);
  while (table_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  table_[slot] = position + 1;
}

void DataCache::TableErase(size_t slot) {
  const size_t mask = table_.size() - 1;
  size_t hole = slot;
  for (size_t next = (hole + 1) & mask; table_[next] != 0; next = (next + 1) & mask) {
    // The entry at `next` may fill the hole unless its home lies cyclically
    // in (hole, next]: then the hole is before its probe chain starts.
    const size_t home = HomeSlot(ring_[table_[next] - 1]);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table_[hole] = table_[next];
      hole = next;
    }
  }
  table_[hole] = 0;
}

void DataCache::GrowTable() {
  const size_t slots = std::max<size_t>(8, table_.size() * 2);
  table_.assign(slots, 0);
  table_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (size_t position = 0; position < ring_.size(); ++position) {
    TableInsert(ring_[position], static_cast<uint32_t>(position));
  }
}

bool DataCache::CheckAndInsert(uint64_t id) {
  if (FindSlot(id) != kNotFound) {
    ++hits_;
    return true;
  }
  if (capacity_ == 0) {
    return false;
  }
  size_t position = head_;
  if (ring_.size() < capacity_) {
    if ((ring_.size() + 1) * 2 > table_.size()) {
      GrowTable();
    }
    position = ring_.size();
    ring_.push_back(id);
  } else {
    // Full: the oldest id gives up its slot and its ring position.
    TableErase(FindSlot(ring_[head_]));
    ring_[head_] = id;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }
  TableInsert(id, static_cast<uint32_t>(position));
  return false;
}

void DataCache::Clear() {
  ring_.clear();
  head_ = 0;
  std::fill(table_.begin(), table_.end(), 0);
}

bool DataCache::ConsistencyCheck() const {
  const auto free_slots = static_cast<size_t>(std::count(table_.begin(), table_.end(), 0u));
  if (table_.size() - free_slots != ring_.size()) {
    return false;
  }
  for (size_t position = 0; position < ring_.size(); ++position) {
    const size_t slot = FindSlot(ring_[position]);
    if (slot == kNotFound || table_[slot] != position + 1) {
      return false;
    }
  }
  return true;
}

}  // namespace diffusion
