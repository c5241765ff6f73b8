// Attribute-value-operation tuples (paper §3.2).
//
// An attribute is the unit of low-level naming: a key drawn from an
// out-of-band registry (a 32-bit number "assigned like Internet protocol
// numbers"), a typed value, and an operation. `IS` carries an actual (bound)
// value; every other operation is a formal (a comparison that must be
// satisfied by some actual in the peer attribute set).

#ifndef SRC_NAMING_ATTRIBUTE_H_
#define SRC_NAMING_ATTRIBUTE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/util/byte_buffer.h"

namespace diffusion {

// Attribute keys come from a shared, pre-deployment registry.
using AttrKey = uint32_t;

// The operation field (paper §3.2). IS binds an actual value; the comparison
// operators and EQ_ANY declare formals.
enum class AttrOp : uint8_t {
  kIs = 0,     // actual: "x IS 125"
  kEq = 1,     // formal: equality
  kNe = 2,     // formal: inequality
  kLe = 3,     // formal: less-or-equal
  kGe = 4,     // formal: greater-or-equal
  kLt = 5,     // formal: less-than
  kGt = 6,     // formal: greater-than
  kEqAny = 7,  // formal: matches any actual with this key
};

// Data formats supported by the implementation (paper §3.2: "integers and
// floating point values of different sizes, strings, and uninterpreted
// binary data").
enum class AttrType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat32 = 2,
  kFloat64 = 3,
  kString = 4,
  kBlob = 5,
};

const char* AttrOpName(AttrOp op);
const char* AttrTypeName(AttrType type);

class Attribute {
 public:
  using Value = std::variant<int32_t, int64_t, float, double, std::string, std::vector<uint8_t>>;

  Attribute() : Attribute(0, AttrOp::kIs, Value(int32_t{0})) {}
  Attribute(AttrKey key, AttrOp op, Value value);

  // Typed factories. The value's static type selects AttrType.
  static Attribute Int32(AttrKey key, AttrOp op, int32_t value);
  static Attribute Int64(AttrKey key, AttrOp op, int64_t value);
  static Attribute Float32(AttrKey key, AttrOp op, float value);
  static Attribute Float64(AttrKey key, AttrOp op, double value);
  static Attribute String(AttrKey key, AttrOp op, std::string value);
  static Attribute Blob(AttrKey key, AttrOp op, std::vector<uint8_t> value);

  AttrKey key() const { return key_; }
  AttrOp op() const { return op_; }
  AttrType type() const { return type_; }
  const Value& value() const { return value_; }

  // FNV-1a hash of the wire encoding (key | op | type | value), computed
  // once at construction. Attributes are immutable after construction, so
  // the cache can never go stale; equality checks and AttributeSet's
  // incremental hash reuse it instead of re-walking string/blob bytes.
  uint64_t hash() const { return hash_; }

  // An actual carries a literal/bound value (op == IS); everything else is a
  // formal parameter awaiting comparison (paper §3.2).
  bool IsActual() const { return op_ == AttrOp::kIs; }
  bool IsFormal() const { return !IsActual(); }

  // Typed accessors; return nullopt on type mismatch. Numeric accessors
  // convert between numeric representations.
  std::optional<double> AsDouble() const;
  std::optional<int64_t> AsInt() const;
  const std::string* AsString() const;
  const std::vector<uint8_t>* AsBlob() const;

  // Evaluates this formal against `actual`, i.e. tests
  // `actual.value <op> this->value` (Figure 2: "b.val compares with a.val
  // using a.op", with the actual on the left). Returns false when this
  // attribute is itself an actual, when keys differ, when `actual` is not an
  // actual, or when the value types are incomparable.
  bool MatchesActual(const Attribute& actual) const;

  // Exact structural equality (key, op, type, value). Used for duplicate
  // detection, not for interest matching.
  bool operator==(const Attribute& other) const;
  bool operator!=(const Attribute& other) const { return !(*this == other); }

  // Wire encoding: key u32 | op u8 | type u8 | value.
  void Serialize(ByteWriter* writer) const;
  static std::optional<Attribute> Deserialize(ByteReader* reader);

  // Size of the wire encoding in bytes.
  size_t WireSize() const;

  // Human-readable rendering, e.g. "confidence GT 0.5".
  std::string ToString() const;

 private:
  uint64_t ComputeHash() const;

  AttrKey key_ = 0;
  AttrOp op_ = AttrOp::kIs;
  AttrType type_ = AttrType::kInt32;
  Value value_ = int32_t{0};
  uint64_t hash_ = 0;
};

// An attribute set; order is not semantically meaningful for matching but is
// preserved for wire round-trips.
using AttributeVector = std::vector<Attribute>;

// Returns the first attribute with `key`, or nullptr.
const Attribute* FindAttribute(const AttributeVector& attrs, AttrKey key);

// Returns the first *actual* (op == IS) with `key`, or nullptr.
const Attribute* FindActual(const AttributeVector& attrs, AttrKey key);

// Removes every attribute with `key`; returns how many were removed.
size_t RemoveAttributes(AttributeVector* attrs, AttrKey key);

// The largest attribute count and string/blob value length the wire
// encoding's u16 prefixes can carry.
inline constexpr size_t kMaxWireLength = 0xffff;

// True when `attrs` fits the wire encoding: at most kMaxWireLength
// attributes, none with a longer string or blob value. The encoder would
// truncate a larger prefix, so DiffusionNode refuses to transmit a message
// that does not fit (NodeStats::messages_refused).
bool FitsWire(const AttributeVector& attrs);

// Wire encoding of a whole vector: count u16 | attributes... Requires
// FitsWire(attrs).
void SerializeAttributes(const AttributeVector& attrs, ByteWriter* writer);
std::optional<AttributeVector> DeserializeAttributes(ByteReader* reader);

// Total wire size of a vector, including the count prefix.
size_t AttributesWireSize(const AttributeVector& attrs);

std::string AttributesToString(const AttributeVector& attrs);

}  // namespace diffusion

#endif  // SRC_NAMING_ATTRIBUTE_H_
