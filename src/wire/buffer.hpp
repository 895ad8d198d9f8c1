// Binary read/write buffers with varint support.
//
// WireBuffer is an append-only growable byte sink; WireReader is a
// bounds-checked cursor over encoded bytes. The reader uses a sticky error
// flag instead of exceptions: decoding of corrupted input stops at the first
// malformed field and `status()` reports kCorruption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace kvscale {

/// Append-only byte buffer used by the codecs.
class WireBuffer {
 public:
  void WriteU8(uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }

  void WriteU16(uint16_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

  /// LEB128 unsigned varint (1-10 bytes).
  void WriteVarint(uint64_t v);

  /// ZigZag-encoded signed varint.
  void WriteZigZag(int64_t v);

  /// Varint length prefix followed by raw bytes.
  void WriteString(std::string_view s);
  void WriteBytes(std::span<const std::byte> data);

  std::span<const std::byte> data() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

  /// Moves the accumulated bytes out, leaving the buffer empty. Lets a
  /// transport own an encoded frame without copying it.
  std::vector<std::byte> TakeBytes() { return std::move(bytes_); }
  void clear() { bytes_.clear(); }
  void reserve(size_t n) { bytes_.reserve(n); }

 private:
  void WriteRaw(const void* p, size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }

  std::vector<std::byte> bytes_;
};

/// Bounds-checked sequential reader over an encoded byte span.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  uint8_t ReadU8();
  uint16_t ReadU16();
  uint32_t ReadU32();
  uint64_t ReadU64();
  double ReadF64();
  uint64_t ReadVarint();
  int64_t ReadZigZag();
  std::string ReadString();
  std::vector<std::byte> ReadBytes();
  /// Like ReadBytes, but a view into the reader's data instead of a copy
  /// (empty once the reader has failed).
  std::span<const std::byte> ReadBytesView();

  /// True while no decode error has occurred.
  bool ok() const { return ok_; }

  /// kCorruption with the failing offset once any read overruns.
  Status status() const;

  /// Bytes remaining.
  size_t remaining() const { return data_.size() - pos_; }

  /// True when the whole buffer has been consumed without error.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  template <typename T>
  T ReadRaw() {
    T v{};
    if (!Ensure(sizeof(T))) return v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool Ensure(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace kvscale
