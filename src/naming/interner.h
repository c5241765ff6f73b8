// String interning for the matching hot path.
//
// At million-entry scale the matcher cannot afford string-keyed bucket maps:
// every lookup re-hashes the bytes and every collision chain walks
// std::string compares (SNIPPETS A1 makes the same point for node names).
// Interner maps each distinct string to a dense uint32 id, so bucket maps
// become flat integer-keyed tables and repeated values share one stored
// copy. Ids are assigned in first-intern order and never recycled, which
// keeps them deterministic for a deterministic insertion sequence.
//
// Instances are plain value objects with no global state — each MatchIndex
// owns its own interner, so parallel simulations (ReplicationPool) never
// share one behind a lock.

#ifndef SRC_NAMING_INTERNER_H_
#define SRC_NAMING_INTERNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace diffusion {

// Dense id for an interned string. Valid ids are 0..size()-1.
using InternId = uint32_t;

class Interner {
 public:
  Interner() = default;

  // Returns the id for `name`, interning it on first sight. Amortized O(1)
  // plus one hash of the bytes; no copy when the string is already known.
  InternId Intern(std::string_view name);

  // Returns the id for `name` if it has been interned, without interning.
  // The read-only lookup the matcher query path uses: an unknown value can
  // not match any interned bucket.
  std::optional<InternId> Find(std::string_view name) const;

  // The string for a previously returned id. `id` must be < size().
  const std::string& NameOf(InternId id) const { return *names_[id]; }

  size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  // Heap bytes held: the string table and the id -> string column
  // (src/util/memory_bytes.h).
  size_t MemoryBytes() const;

 private:
  // Heterogeneous lookup so Find/Intern take string_view without building a
  // temporary std::string.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
    size_t operator()(const std::string& s) const {
      return std::hash<std::string_view>{}(std::string_view(s));
    }
  };

  std::unordered_map<std::string, InternId, TransparentHash, std::equal_to<>> ids_;
  // id -> string, pointing at the map's keys (node-based, stable addresses).
  std::vector<const std::string*> names_;
};

}  // namespace diffusion

#endif  // SRC_NAMING_INTERNER_H_
