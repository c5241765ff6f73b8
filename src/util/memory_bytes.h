// Heap bytes held by standard containers, computed from their capacities.
//
// The memory ledger is one MemoryBytes() per long-lived structure: the heap
// bytes it owns beyond its own sizeof. The object itself is counted by
// whoever holds it, inside the owner's sizeof when it is a member and by the
// owner when it sits behind a pointer. Nothing here walks the heap or adds
// a cost per event: a ledger is computed on demand, after a run.
//
// Vectors are exact (capacity times element size). Node-based containers
// follow libstdc++'s node layouts: a tree node is four words of links and
// colour plus the value, a hash node one link word plus the value (and the
// hash when the table caches it), and a hash table with more than one
// bucket holds one word per bucket. Allocator overhead is never included,
// so a ledger reads what the program asked for, not what malloc rounded it
// up to.

#ifndef SRC_UTIL_MEMORY_BYTES_H_
#define SRC_UTIL_MEMORY_BYTES_H_

#include <cstddef>
#include <list>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace diffusion {

// `bytes` rounded up to the allocator's word alignment.
constexpr size_t WordAligned(size_t bytes) {
  return (bytes + sizeof(void*) - 1) / sizeof(void*) * sizeof(void*);
}

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

// A vector<bool> stores its capacity in bits, a whole number of words.
inline size_t VectorBytes(const std::vector<bool>& v) { return v.capacity() / 8; }

// The characters of a string that outgrew its inline buffer.
inline size_t StringBytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

template <typename K, typename V, typename C, typename A>
size_t MapBytes(const std::map<K, V, C, A>& m) {
  return m.size() * WordAligned(4 * sizeof(void*) + sizeof(std::pair<const K, V>));
}

template <typename T>
size_t ListBytes(const std::list<T>& l) {
  return l.size() * WordAligned(2 * sizeof(void*) + sizeof(T));
}

namespace memory_internal {

// The bucket array plus `table.size()` nodes of `value_bytes` each. A table
// caches each node's hash unless its hash function is cheap and cannot
// throw.
template <typename Key, typename Hash, typename Table>
size_t HashTableBytes(const Table& table, size_t value_bytes) {
  constexpr bool cached = std::is_same_v<Key, std::string> ||
                          !std::is_nothrow_invocable_v<const Hash&, const Key&>;
  const size_t node = WordAligned(sizeof(void*) + value_bytes + (cached ? sizeof(size_t) : 0));
  const size_t buckets = table.bucket_count() > 1 ? table.bucket_count() * sizeof(void*) : 0;
  return buckets + table.size() * node;
}

}  // namespace memory_internal

template <typename K, typename V, typename H, typename E, typename A>
size_t HashMapBytes(const std::unordered_map<K, V, H, E, A>& m) {
  return memory_internal::HashTableBytes<K, H>(m, sizeof(std::pair<const K, V>));
}

template <typename K, typename H, typename E, typename A>
size_t HashSetBytes(const std::unordered_set<K, H, E, A>& s) {
  return memory_internal::HashTableBytes<K, H>(s, sizeof(K));
}

}  // namespace diffusion

#endif  // SRC_UTIL_MEMORY_BYTES_H_
