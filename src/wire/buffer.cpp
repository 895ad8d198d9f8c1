#include "wire/buffer.hpp"

#include <algorithm>

namespace kvscale {

void WireBuffer::WriteVarint(uint64_t v) {
  uint8_t bytes[10];
  size_t n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  bytes[n++] = static_cast<uint8_t>(v);
  WriteRaw(bytes, n);
}

void WireBuffer::WriteZigZag(int64_t v) {
  WriteVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
}

void WireBuffer::WriteString(std::string_view s) {
  WriteVarint(s.size());
  WriteRaw(s.data(), s.size());
}

void WireBuffer::WriteBytes(std::span<const std::byte> data) {
  WriteVarint(data.size());
  WriteRaw(data.data(), data.size());
}

uint8_t WireReader::ReadU8() { return ReadRaw<uint8_t>(); }
uint16_t WireReader::ReadU16() { return ReadRaw<uint16_t>(); }
uint32_t WireReader::ReadU32() { return ReadRaw<uint32_t>(); }
uint64_t WireReader::ReadU64() { return ReadRaw<uint64_t>(); }
double WireReader::ReadF64() { return ReadRaw<double>(); }

uint64_t WireReader::ReadVarint() {
  // At most ten bytes: a longer encoding is over-long, a shorter run of
  // continuation bytes at the end is truncated — both fail.
  const size_t avail = ok_ ? std::min<size_t>(data_.size() - pos_, 10) : 0;
  const std::byte* p = data_.data() + pos_;
  uint64_t v = 0;
  for (size_t i = 0; i < avail; ++i) {
    const auto b = static_cast<uint8_t>(p[i]);
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      pos_ += i + 1;
      return v;
    }
  }
  ok_ = false;
  return 0;
}

int64_t WireReader::ReadZigZag() {
  const uint64_t z = ReadVarint();
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string WireReader::ReadString() {
  const uint64_t len = ReadVarint();
  if (!Ensure(len)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::vector<std::byte> WireReader::ReadBytes() {
  const uint64_t len = ReadVarint();
  if (!Ensure(len)) return {};
  std::vector<std::byte> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                             data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

std::span<const std::byte> WireReader::ReadBytesView() {
  const uint64_t len = ReadVarint();
  if (!Ensure(len)) return {};
  const auto view = data_.subspan(pos_, len);
  pos_ += len;
  return view;
}

Status WireReader::status() const {
  if (ok_) return Status::Ok();
  return Status::Corruption("wire decode failed at offset " +
                            std::to_string(pos_));
}

}  // namespace kvscale
