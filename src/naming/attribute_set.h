// Canonical attribute sets (the matching fast path, §3.1).
//
// Matching treats an attribute set as an unordered multiset, but the seed
// implementation stored plain vectors, so every OneWayMatch was a nested
// linear scan and every duplicate-interest check re-hashed the whole set.
// AttributeSet stores the attributes sorted by key (stable, so same-key
// attributes keep their relative order) and maintains an order-insensitive
// hash incrementally, which turns:
//   * OneWayMatch / TwoWayMatch into merge-scans over the sorted forms, and
//   * ExactMatch into a precomputed-hash compare followed by a per-key-run
//     check ("hashes of attributes can be computed and compared rather than
//     complete data", §3.1).
//
// The wire encoding is identical to SerializeAttributes over the sorted
// vector, so canonical sets round-trip bit-exactly and interoperate with
// peers that still emit unsorted vectors (Deserialize re-canonicalizes).
//
// Storage is copy-on-write: the sorted vector, the hash accumulators and
// the precomputed wire size live in a shared Rep, so copying an
// AttributeSet — which the forwarding hot path does once per hop per
// neighbor — is one refcount bump instead of a deep vector copy, and
// WireSize() is O(1). Mutation clones the Rep only when it is shared.

#ifndef SRC_NAMING_ATTRIBUTE_SET_H_
#define SRC_NAMING_ATTRIBUTE_SET_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>

#include "src/naming/attribute.h"

namespace diffusion {

// Order-insensitive FNV-1a hash of one attribute's wire encoding, computed
// without serializing (no allocation). Equal to hashing the bytes
// Attribute::Serialize would emit.
uint64_t AttributeHash(const Attribute& attr);

class AttributeSet {
 public:
  using const_iterator = AttributeVector::const_iterator;

  AttributeSet() = default;
  // Implicit on purpose: every call site that built an AttributeVector (or a
  // braced initializer list) canonicalizes transparently.
  AttributeSet(AttributeVector attrs);  // NOLINT(google-explicit-constructor)
  AttributeSet(std::initializer_list<Attribute> attrs);

  // The attributes in canonical (key-sorted) order.
  const AttributeVector& items() const { return rep_ ? rep_->attrs : EmptyVec(); }
  size_t size() const { return items().size(); }
  bool empty() const { return items().empty(); }
  const Attribute& operator[](size_t i) const { return items()[i]; }
  const_iterator begin() const { return items().begin(); }
  const_iterator end() const { return items().end(); }

  // Order-insensitive hash of the whole set; O(1), maintained across
  // mutations. Two sets that ExactMatch always hash equal.
  uint64_t hash() const;

  // Inserts `attr` keeping key order (after existing attributes with the
  // same key). push_back is an alias so vector-era call sites read naturally.
  void Add(Attribute attr);
  void push_back(Attribute attr) { Add(std::move(attr)); }

  // Removes every attribute with `key`; returns how many were removed.
  size_t RemoveKey(AttrKey key);

  // Adds every attribute of `extra` (multiset union).
  void Append(const AttributeSet& extra);
  void Append(const AttributeVector& extra);

  void Clear();

  // First attribute with `key` (canonical order), or nullptr. Binary search.
  const Attribute* Find(AttrKey key) const;
  // First *actual* (op == IS) with `key`, or nullptr.
  const Attribute* FindActual(AttrKey key) const;

  // Multiset equality (hash pre-check + per-key-run compare). Matches the
  // semantics of ExactMatch on the underlying vectors.
  bool operator==(const AttributeSet& other) const;
  bool operator!=(const AttributeSet& other) const { return !(*this == other); }

  // Wire encoding: count u16 | attributes in canonical order. Compatible
  // with SerializeAttributes/DeserializeAttributes.
  void Serialize(ByteWriter* writer) const;
  static std::optional<AttributeSet> Deserialize(ByteReader* reader);
  // Encoded byte count; O(1) (maintained incrementally with the hash).
  size_t WireSize() const;

  std::string ToString() const;

 private:
  // Shared representation. A null rep_ is the canonical empty set, so
  // default construction allocates nothing.
  struct Rep {
    AttributeVector attrs;  // sorted by key (stable)
    // Commutative accumulators over AttributeHash of each element; hash()
    // mixes them with the size. Add/remove update them in O(1) hashes.
    uint64_t hash_sum = 0;
    uint64_t hash_xor = 0;
    size_t wire_size = 2;  // count u16 + per-attribute encodings
  };

  static const AttributeVector& EmptyVec();

  // Index of the first attribute with key >= `key`.
  size_t LowerBound(AttrKey key) const;
  void Canonicalize();
  // Clones the rep if shared (or creates one if null) so it can be mutated.
  Rep& MutableRep();

  std::shared_ptr<Rep> rep_;
};

// Free-function shims mirroring the AttributeVector helpers, so code
// generic over either form reads the same.
const Attribute* FindAttribute(const AttributeSet& attrs, AttrKey key);
const Attribute* FindActual(const AttributeSet& attrs, AttrKey key);
size_t RemoveAttributes(AttributeSet* attrs, AttrKey key);
std::string AttributesToString(const AttributeSet& attrs);

}  // namespace diffusion

#endif  // SRC_NAMING_ATTRIBUTE_SET_H_
