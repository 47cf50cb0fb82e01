#ifndef IPDB_DURABILITY_ENCODING_H_
#define IPDB_DURABILITY_ENCODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "relational/value.h"

namespace ipdb {
namespace durability {

/// Little-endian byte (de)serialization for the snapshot and WAL
/// formats. The writer appends to a std::string; the reader is fully
/// bounds-checked and *never* trusts its input — every Get returns false
/// on underrun and the caller converts that into a kDataLoss Status.
/// Fixed-width little-endian integers (memcpy'd, so the encode is
/// byte-identical across hosts of the same endianness, which is all this
/// project targets) keep the format trivially seekable and the CRC
/// stable.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutFixed(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  /// Bitwise image of the double — probabilities must round-trip to the
  /// identical bit pattern, not through decimal text.
  void PutF64(double v) { PutFixed(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  /// u32 length prefix + raw bytes.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

 private:
  void PutFixed(const void* v, size_t n) {
    out_->append(static_cast<const char*>(v), n);
  }

  std::string* out_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  bool GetU8(uint8_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU16(uint16_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetF64(double* v) { return GetFixed(v, sizeof(*v)); }
  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }
  bool GetBytes(void* out, size_t n) {
    if (remaining() < n) return false;
    // An empty column hands in a null `out`; memcpy's pointers must be
    // valid even for a zero-byte copy.
    if (n == 0) return true;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  /// Reads a u32-length-prefixed string; rejects lengths that overrun
  /// the buffer (a corrupted length must not drive an allocation).
  bool GetString(std::string* out) {
    uint32_t n = 0;
    if (!GetU32(&n)) return false;
    if (remaining() < n) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool GetFixed(void* v, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// rel::Value wire form shared by the snapshot and WAL formats:
/// u8 kind, then the payload (i64 for ints, length-prefixed bytes for
/// symbols, nothing for ⊥).
inline void EncodeValue(ByteWriter* w, const rel::Value& value) {
  w->PutU8(static_cast<uint8_t>(value.kind()));
  switch (value.kind()) {
    case rel::Value::Kind::kNull:
      break;
    case rel::Value::Kind::kInt:
      w->PutI64(value.int_value());
      break;
    case rel::Value::Kind::kSymbol:
      w->PutString(value.symbol());
      break;
  }
}

inline bool DecodeValue(ByteReader* r, rel::Value* out) {
  uint8_t kind = 0;
  if (!r->GetU8(&kind)) return false;
  switch (kind) {
    case static_cast<uint8_t>(rel::Value::Kind::kNull):
      *out = rel::Value::Null();
      return true;
    case static_cast<uint8_t>(rel::Value::Kind::kInt): {
      int64_t v = 0;
      if (!r->GetI64(&v)) return false;
      *out = rel::Value::Int(v);
      return true;
    }
    case static_cast<uint8_t>(rel::Value::Kind::kSymbol): {
      std::string s;
      if (!r->GetString(&s)) return false;
      *out = rel::Value::Symbol(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace durability
}  // namespace ipdb

#endif  // IPDB_DURABILITY_ENCODING_H_
