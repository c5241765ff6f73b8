// Byte-level serialization primitives.
//
// Diffusion messages travel over the radio as byte strings; ByteWriter and
// ByteReader implement the little-endian wire encoding used by the naming and
// core modules. Reads are bounds-checked and report failure rather than
// throwing, since a truncated or corrupt frame is an expected runtime event
// in a lossy radio network.

#ifndef SRC_UTIL_BYTE_BUFFER_H_
#define SRC_UTIL_BYTE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace diffusion {

// Appends little-endian encoded fields to a growable byte vector.
class ByteWriter {
 public:
  void WriteU8(uint8_t value);
  void WriteU16(uint16_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value) { WriteU32(static_cast<uint32_t>(value)); }
  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }
  void WriteF32(float value);
  void WriteF64(double value);
  // Length-prefixed (u16) byte string; callers keep it to 0xffff bytes.
  void WriteBytes(const std::vector<uint8_t>& bytes);
  void WriteString(const std::string& text);
  // Raw bytes, no length prefix.
  void WriteRaw(const uint8_t* data, size_t size);

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t> Take() { return std::move(data_); }
  size_t size() const { return data_.size(); }
  // Drops the contents but keeps the capacity, so a long-lived writer can be
  // reused as a scratch encode buffer without reallocating per message.
  void Clear() { data_.clear(); }

 private:
  std::vector<uint8_t> data_;
};

// Reads little-endian encoded fields from a byte span. All reads return false
// (and leave the output untouched) when the buffer is exhausted; once a read
// fails the reader is marked bad and further reads fail too.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& data) : ByteReader(data.data(), data.size()) {}

  bool ReadU8(uint8_t* out);
  bool ReadU16(uint16_t* out);
  bool ReadU32(uint32_t* out);
  bool ReadU64(uint64_t* out);
  bool ReadI32(int32_t* out);
  bool ReadI64(int64_t* out);
  bool ReadF32(float* out);
  bool ReadF64(double* out);
  bool ReadBytes(std::vector<uint8_t>* out);
  bool ReadString(std::string* out);

  size_t remaining() const { return size_ - offset_; }
  bool ok() const { return ok_; }

 private:
  bool Take(size_t n, const uint8_t** out);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace diffusion

#endif  // SRC_UTIL_BYTE_BUFFER_H_
