#include "src/naming/attribute.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace diffusion {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline uint64_t FnvByte(uint64_t h, uint8_t byte) { return (h ^ byte) * kFnvPrime; }

inline uint64_t FnvU16(uint64_t h, uint16_t v) {
  h = FnvByte(h, static_cast<uint8_t>(v));
  return FnvByte(h, static_cast<uint8_t>(v >> 8));
}

inline uint64_t FnvU32(uint64_t h, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    h = FnvByte(h, static_cast<uint8_t>(v >> shift));
  }
  return h;
}

inline uint64_t FnvU64(uint64_t h, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = FnvByte(h, static_cast<uint8_t>(v >> shift));
  }
  return h;
}

// Applies a comparison operator with the actual's value on the left-hand
// side: returns `lhs <op> rhs`.
template <typename T>
bool Compare(AttrOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case AttrOp::kEq:
      return lhs == rhs;
    case AttrOp::kNe:
      return lhs != rhs;
    case AttrOp::kLe:
      return lhs <= rhs;
    case AttrOp::kGe:
      return lhs >= rhs;
    case AttrOp::kLt:
      return lhs < rhs;
    case AttrOp::kGt:
      return lhs > rhs;
    case AttrOp::kEqAny:
      return true;
    case AttrOp::kIs:
      return false;  // an actual is not a predicate
  }
  return false;
}

bool IsNumeric(AttrType type) {
  switch (type) {
    case AttrType::kInt32:
    case AttrType::kInt64:
    case AttrType::kFloat32:
    case AttrType::kFloat64:
      return true;
    case AttrType::kString:
    case AttrType::kBlob:
      return false;
  }
  return false;
}

}  // namespace

const char* AttrOpName(AttrOp op) {
  switch (op) {
    case AttrOp::kIs:
      return "IS";
    case AttrOp::kEq:
      return "EQ";
    case AttrOp::kNe:
      return "NE";
    case AttrOp::kLe:
      return "LE";
    case AttrOp::kGe:
      return "GE";
    case AttrOp::kLt:
      return "LT";
    case AttrOp::kGt:
      return "GT";
    case AttrOp::kEqAny:
      return "EQ_ANY";
  }
  return "?";
}

const char* AttrTypeName(AttrType type) {
  switch (type) {
    case AttrType::kInt32:
      return "int32";
    case AttrType::kInt64:
      return "int64";
    case AttrType::kFloat32:
      return "float32";
    case AttrType::kFloat64:
      return "float64";
    case AttrType::kString:
      return "string";
    case AttrType::kBlob:
      return "blob";
  }
  return "?";
}

Attribute::Attribute(AttrKey key, AttrOp op, Value value)
    : key_(key), op_(op), value_(std::move(value)) {
  type_ = static_cast<AttrType>(value_.index());
  hash_ = ComputeHash();
}

uint64_t Attribute::ComputeHash() const {
  // FNV-1a over the attribute's little-endian wire encoding, byte for byte
  // the same sequence Serialize emits, but without materializing it.
  uint64_t h = kFnvOffset;
  h = FnvU32(h, key_);
  h = FnvByte(h, static_cast<uint8_t>(op_));
  h = FnvByte(h, static_cast<uint8_t>(type_));
  switch (type_) {
    case AttrType::kInt32:
      h = FnvU32(h, static_cast<uint32_t>(std::get<int32_t>(value_)));
      break;
    case AttrType::kInt64:
      h = FnvU64(h, static_cast<uint64_t>(std::get<int64_t>(value_)));
      break;
    case AttrType::kFloat32: {
      uint32_t bits;
      static_assert(sizeof(bits) == sizeof(float));
      std::memcpy(&bits, &std::get<float>(value_), sizeof(bits));
      h = FnvU32(h, bits);
      break;
    }
    case AttrType::kFloat64: {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      std::memcpy(&bits, &std::get<double>(value_), sizeof(bits));
      h = FnvU64(h, bits);
      break;
    }
    case AttrType::kString: {
      const std::string& s = std::get<std::string>(value_);
      h = FnvU16(h, static_cast<uint16_t>(s.size()));
      for (char c : s) {
        h = FnvByte(h, static_cast<uint8_t>(c));
      }
      break;
    }
    case AttrType::kBlob: {
      const std::vector<uint8_t>& bytes = std::get<std::vector<uint8_t>>(value_);
      h = FnvU16(h, static_cast<uint16_t>(bytes.size()));
      for (uint8_t byte : bytes) {
        h = FnvByte(h, byte);
      }
      break;
    }
  }
  return h;
}

Attribute Attribute::Int32(AttrKey key, AttrOp op, int32_t value) {
  return Attribute(key, op, Value(value));
}
Attribute Attribute::Int64(AttrKey key, AttrOp op, int64_t value) {
  return Attribute(key, op, Value(value));
}
Attribute Attribute::Float32(AttrKey key, AttrOp op, float value) {
  return Attribute(key, op, Value(value));
}
Attribute Attribute::Float64(AttrKey key, AttrOp op, double value) {
  return Attribute(key, op, Value(value));
}
Attribute Attribute::String(AttrKey key, AttrOp op, std::string value) {
  return Attribute(key, op, Value(std::move(value)));
}
Attribute Attribute::Blob(AttrKey key, AttrOp op, std::vector<uint8_t> value) {
  return Attribute(key, op, Value(std::move(value)));
}

std::optional<double> Attribute::AsDouble() const {
  switch (type_) {
    case AttrType::kInt32:
      return static_cast<double>(std::get<int32_t>(value_));
    case AttrType::kInt64:
      return static_cast<double>(std::get<int64_t>(value_));
    case AttrType::kFloat32:
      return static_cast<double>(std::get<float>(value_));
    case AttrType::kFloat64:
      return std::get<double>(value_);
    case AttrType::kString:
    case AttrType::kBlob:
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<int64_t> Attribute::AsInt() const {
  switch (type_) {
    case AttrType::kInt32:
      return static_cast<int64_t>(std::get<int32_t>(value_));
    case AttrType::kInt64:
      return std::get<int64_t>(value_);
    case AttrType::kFloat32:
      return static_cast<int64_t>(std::get<float>(value_));
    case AttrType::kFloat64:
      return static_cast<int64_t>(std::get<double>(value_));
    case AttrType::kString:
    case AttrType::kBlob:
      return std::nullopt;
  }
  return std::nullopt;
}

const std::string* Attribute::AsString() const { return std::get_if<std::string>(&value_); }

const std::vector<uint8_t>* Attribute::AsBlob() const {
  return std::get_if<std::vector<uint8_t>>(&value_);
}

bool Attribute::MatchesActual(const Attribute& actual) const {
  if (IsActual() || !actual.IsActual() || key_ != actual.key_) {
    return false;
  }
  if (op_ == AttrOp::kEqAny) {
    // EQ_ANY matches any actual with this key, regardless of value or type.
    return true;
  }
  if (IsNumeric(type_) && IsNumeric(actual.type_)) {
    // Numeric comparisons promote both sides to double so that, e.g., an
    // int32 interest bound can match a float64 reading.
    return Compare(op_, *actual.AsDouble(), *AsDouble());
  }
  if (type_ != actual.type_) {
    return false;
  }
  if (type_ == AttrType::kString) {
    return Compare(op_, *actual.AsString(), *AsString());
  }
  // Blobs compare bytewise (lexicographically for the ordered operators).
  return Compare(op_, *actual.AsBlob(), *AsBlob());
}

bool Attribute::operator==(const Attribute& other) const {
  // The cached wire-encoding hash rejects almost all mismatches without
  // touching string/blob payload bytes.
  if (hash_ != other.hash_) {
    return false;
  }
  return key_ == other.key_ && op_ == other.op_ && type_ == other.type_ && value_ == other.value_;
}

void Attribute::Serialize(ByteWriter* writer) const {
  writer->WriteU32(key_);
  writer->WriteU8(static_cast<uint8_t>(op_));
  writer->WriteU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case AttrType::kInt32:
      writer->WriteI32(std::get<int32_t>(value_));
      break;
    case AttrType::kInt64:
      writer->WriteI64(std::get<int64_t>(value_));
      break;
    case AttrType::kFloat32:
      writer->WriteF32(std::get<float>(value_));
      break;
    case AttrType::kFloat64:
      writer->WriteF64(std::get<double>(value_));
      break;
    case AttrType::kString:
      writer->WriteString(std::get<std::string>(value_));
      break;
    case AttrType::kBlob:
      writer->WriteBytes(std::get<std::vector<uint8_t>>(value_));
      break;
  }
}

std::optional<Attribute> Attribute::Deserialize(ByteReader* reader) {
  uint32_t key;
  uint8_t op_raw;
  uint8_t type_raw;
  if (!reader->ReadU32(&key) || !reader->ReadU8(&op_raw) || !reader->ReadU8(&type_raw)) {
    return std::nullopt;
  }
  if (op_raw > static_cast<uint8_t>(AttrOp::kEqAny) ||
      type_raw > static_cast<uint8_t>(AttrType::kBlob)) {
    return std::nullopt;
  }
  const AttrOp op = static_cast<AttrOp>(op_raw);
  switch (static_cast<AttrType>(type_raw)) {
    case AttrType::kInt32: {
      int32_t v;
      if (!reader->ReadI32(&v)) {
        return std::nullopt;
      }
      return Int32(key, op, v);
    }
    case AttrType::kInt64: {
      int64_t v;
      if (!reader->ReadI64(&v)) {
        return std::nullopt;
      }
      return Int64(key, op, v);
    }
    case AttrType::kFloat32: {
      float v;
      if (!reader->ReadF32(&v)) {
        return std::nullopt;
      }
      return Float32(key, op, v);
    }
    case AttrType::kFloat64: {
      double v;
      if (!reader->ReadF64(&v)) {
        return std::nullopt;
      }
      return Float64(key, op, v);
    }
    case AttrType::kString: {
      std::string v;
      if (!reader->ReadString(&v)) {
        return std::nullopt;
      }
      return String(key, op, std::move(v));
    }
    case AttrType::kBlob: {
      std::vector<uint8_t> v;
      if (!reader->ReadBytes(&v)) {
        return std::nullopt;
      }
      return Blob(key, op, std::move(v));
    }
  }
  return std::nullopt;
}

size_t Attribute::WireSize() const {
  size_t size = 4 + 1 + 1;  // key + op + type
  switch (type_) {
    case AttrType::kInt32:
    case AttrType::kFloat32:
      size += 4;
      break;
    case AttrType::kInt64:
    case AttrType::kFloat64:
      size += 8;
      break;
    case AttrType::kString:
      size += 2 + std::get<std::string>(value_).size();
      break;
    case AttrType::kBlob:
      size += 2 + std::get<std::vector<uint8_t>>(value_).size();
      break;
  }
  return size;
}

std::string Attribute::ToString() const {
  std::ostringstream out;
  out << key_ << " " << AttrOpName(op_) << " ";
  switch (type_) {
    case AttrType::kInt32:
      out << std::get<int32_t>(value_);
      break;
    case AttrType::kInt64:
      out << std::get<int64_t>(value_);
      break;
    case AttrType::kFloat32:
      out << std::get<float>(value_);
      break;
    case AttrType::kFloat64:
      out << std::get<double>(value_);
      break;
    case AttrType::kString:
      out << '"' << std::get<std::string>(value_) << '"';
      break;
    case AttrType::kBlob:
      out << "<blob:" << std::get<std::vector<uint8_t>>(value_).size() << "B>";
      break;
  }
  return out.str();
}

const Attribute* FindAttribute(const AttributeVector& attrs, AttrKey key) {
  for (const Attribute& attr : attrs) {
    if (attr.key() == key) {
      return &attr;
    }
  }
  return nullptr;
}

const Attribute* FindActual(const AttributeVector& attrs, AttrKey key) {
  for (const Attribute& attr : attrs) {
    if (attr.key() == key && attr.IsActual()) {
      return &attr;
    }
  }
  return nullptr;
}

size_t RemoveAttributes(AttributeVector* attrs, AttrKey key) {
  const size_t before = attrs->size();
  attrs->erase(std::remove_if(attrs->begin(), attrs->end(),
                              [key](const Attribute& attr) { return attr.key() == key; }),
               attrs->end());
  return before - attrs->size();
}

bool FitsWire(const AttributeVector& attrs) {
  if (attrs.size() > kMaxWireLength) {
    return false;
  }
  for (const Attribute& attr : attrs) {
    const std::string* text = attr.AsString();
    const std::vector<uint8_t>* blob = attr.AsBlob();
    if ((text != nullptr && text->size() > kMaxWireLength) ||
        (blob != nullptr && blob->size() > kMaxWireLength)) {
      return false;
    }
  }
  return true;
}

void SerializeAttributes(const AttributeVector& attrs, ByteWriter* writer) {
  writer->WriteU16(static_cast<uint16_t>(attrs.size()));
  for (const Attribute& attr : attrs) {
    attr.Serialize(writer);
  }
}

std::optional<AttributeVector> DeserializeAttributes(ByteReader* reader) {
  uint16_t count;
  if (!reader->ReadU16(&count)) {
    return std::nullopt;
  }
  AttributeVector attrs;
  attrs.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    std::optional<Attribute> attr = Attribute::Deserialize(reader);
    if (!attr.has_value()) {
      return std::nullopt;
    }
    attrs.push_back(std::move(*attr));
  }
  return attrs;
}

size_t AttributesWireSize(const AttributeVector& attrs) {
  size_t size = 2;
  for (const Attribute& attr : attrs) {
    size += attr.WireSize();
  }
  return size;
}

std::string AttributesToString(const AttributeVector& attrs) {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << attrs[i].ToString();
  }
  out << ")";
  return out.str();
}

}  // namespace diffusion
