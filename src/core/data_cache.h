// Duplicate/loop-suppression cache (paper §3.1).
//
// "The core diffusion mechanism uses the cache to suppress duplicate
// messages and prevent loops." Entries are packet ids (origin + sequence),
// which survive re-broadcast, so a flooded message is processed at most once
// per node. Bounded FIFO eviction keeps memory constant.
//
// Every node checks every packet against its cache, so the cache allocates
// nothing per id. The ids sit in a ring that grows to `capacity` and then
// overwrites its oldest entry. An open-addressed table (power-of-two size,
// linear probing, backward-shift delete) maps an id to its ring position.
// The table grows with the ring, so a node that hears little stays small.
// Each id sits in the ring exactly once: the ring is the FIFO order and the
// table is the membership set, and one insert or eviction updates both.

#ifndef SRC_CORE_DATA_CACHE_H_
#define SRC_CORE_DATA_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace diffusion {

class DataCache {
 public:
  // `capacity` must stay below 2^32 - 1 (ring positions are 32 bits).
  explicit DataCache(size_t capacity);

  // Records `id`; returns true if it was already present (a duplicate).
  bool CheckAndInsert(uint64_t id);

  // Forgets every cached id (a rebooted node's cold cache). The hit counter
  // keeps running; the table keeps its size.
  void Clear();

  bool Contains(uint64_t id) const { return FindSlot(id) != kNotFound; }
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }

  // FIFO order entries. Each id is in the ring exactly once, so this equals
  // size(); ConsistencyCheck verifies the table agrees.
  size_t order_size() const { return ring_.size(); }

  // Heap bytes held: the ring and the table (src/util/memory_bytes.h).
  size_t MemoryBytes() const;

  // True when the table and the ring agree: the table holds one entry per
  // ring position, and looking up each ring id finds its own position.
  bool ConsistencyCheck() const;

 private:
  static constexpr size_t kNotFound = ~size_t{0};

  // The table slot holding `id`, or kNotFound.
  size_t FindSlot(uint64_t id) const;
  // The first slot `id` probes.
  size_t HomeSlot(uint64_t id) const;
  // Points a free slot on `id`'s probe chain at ring position `position`.
  void TableInsert(uint64_t id, uint32_t position);
  // Empties `slot` and shifts the rest of its probe run back over it.
  void TableErase(size_t slot);
  // Doubles the table (at least 8 slots) and re-enters every ring id.
  void GrowTable();

  size_t capacity_;
  uint64_t hits_ = 0;
  std::vector<uint64_t> ring_;  // ids; the oldest at head_ once full
  size_t head_ = 0;
  // Ring position + 1 per slot; 0 marks a free slot. Kept at most half full.
  std::vector<uint32_t> table_;
  unsigned table_shift_ = 64;  // 64 - log2(table_.size())
};

}  // namespace diffusion

#endif  // SRC_CORE_DATA_CACHE_H_
