// Message codecs: TaggedCodec vs CompactCodec.
//
// The paper traced its master bottleneck to Java's default serialization,
// which embeds class descriptors and field metadata in every message, and
// fixed it with Kryo, which writes pre-registered type ids and packed
// integers (Section V-B: 150 us -> 19 us per message, 7.5 MB -> 0.9 MB for a
// fine-grained query). We reproduce both designs as real codecs over the
// same message structs:
//
//  * TaggedCodec  — self-describing: stream magic, full type name, field
//    count, and per-field name + type tag + fixed-width value. Decoding
//    validates every name/tag, like a reflective deserializer.
//  * CompactCodec — registration-based: a varint type id followed by the
//    fields in declaration order as varints/zigzag. Unknown types refuse to
//    encode, exactly like Kryo's required registration.
//
// Messages opt in by exposing `kTypeName` and a `Visit(visitor)` method that
// presents each field as visitor.Field("name", member).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "wire/buffer.hpp"

namespace kvscale {

namespace wire_internal {

enum class FieldTag : uint8_t {
  kU32 = 1,
  kU64 = 2,
  kI64 = 3,
  kF64 = 4,
  kString = 5,
  kVecU64 = 6,
  kVecString = 7,
};

/// Counts fields of a message via its Visit method.
struct CountingVisitor {
  size_t count = 0;
  template <typename T>
  void Field(std::string_view, T&) {
    ++count;
  }
};

template <typename M>
size_t FieldCount() {
  M probe{};
  CountingVisitor v;
  probe.Visit(v);
  return v.count;
}

}  // namespace wire_internal

// ---------------------------------------------------------------------------
// TaggedCodec
// ---------------------------------------------------------------------------

/// Self-describing codec (Java-serialization-like). Stateless.
class TaggedCodec {
 public:
  static constexpr uint16_t kMagic = 0xACED;
  static constexpr uint8_t kVersion = 5;

  /// Appends the encoded message to `out`.
  template <typename M>
  static void Encode(const M& msg, WireBuffer& out) {
    out.WriteU16(kMagic);
    out.WriteU8(kVersion);
    out.WriteString(M::kTypeName);
    out.WriteU8(static_cast<uint8_t>(wire_internal::FieldCount<M>()));
    Writer w{out};
    const_cast<M&>(msg).Visit(w);  // Visit is logically const for writers
  }

  /// Decodes one message; fails with kCorruption on any structural
  /// mismatch (wrong magic, type name, field name or tag).
  template <typename M>
  static Result<M> Decode(std::span<const std::byte> data) {
    WireReader r(data);
    if (r.ReadU16() != kMagic || r.ReadU8() != kVersion) {
      return Status::Corruption("tagged: bad header");
    }
    if (r.ReadString() != M::kTypeName) {
      return Status::Corruption("tagged: type name mismatch");
    }
    const uint8_t field_count = r.ReadU8();
    if (field_count != wire_internal::FieldCount<M>()) {
      return Status::Corruption("tagged: field count mismatch");
    }
    M msg{};
    Reader rd{r};
    msg.Visit(rd);
    if (!rd.ok || !r.ok()) return Status::Corruption("tagged: body decode");
    return msg;
  }

 private:
  using FieldTag = wire_internal::FieldTag;

  struct Writer {
    WireBuffer& out;

    void Field(std::string_view name, uint32_t& v) {
      Head(name, FieldTag::kU32);
      out.WriteU32(v);
    }
    void Field(std::string_view name, uint64_t& v) {
      Head(name, FieldTag::kU64);
      out.WriteU64(v);
    }
    void Field(std::string_view name, int64_t& v) {
      Head(name, FieldTag::kI64);
      out.WriteU64(static_cast<uint64_t>(v));
    }
    void Field(std::string_view name, double& v) {
      Head(name, FieldTag::kF64);
      out.WriteF64(v);
    }
    void Field(std::string_view name, std::string& v) {
      Head(name, FieldTag::kString);
      out.WriteU32(static_cast<uint32_t>(v.size()));
      for (char c : v) out.WriteU8(static_cast<uint8_t>(c));
    }
    void Field(std::string_view name, std::vector<uint64_t>& v) {
      Head(name, FieldTag::kVecU64);
      out.WriteU32(static_cast<uint32_t>(v.size()));
      for (uint64_t x : v) out.WriteU64(x);
    }
    void Field(std::string_view name, std::vector<std::string>& v) {
      Head(name, FieldTag::kVecString);
      out.WriteU32(static_cast<uint32_t>(v.size()));
      for (auto& s : v) {
        out.WriteU32(static_cast<uint32_t>(s.size()));
        for (char c : s) out.WriteU8(static_cast<uint8_t>(c));
      }
    }

   private:
    void Head(std::string_view name, FieldTag tag) {
      out.WriteString(name);
      out.WriteU8(static_cast<uint8_t>(tag));
    }
  };

  struct Reader {
    WireReader& in;
    bool ok = true;

    void Field(std::string_view name, uint32_t& v) {
      if (Head(name, FieldTag::kU32)) v = in.ReadU32();
    }
    void Field(std::string_view name, uint64_t& v) {
      if (Head(name, FieldTag::kU64)) v = in.ReadU64();
    }
    void Field(std::string_view name, int64_t& v) {
      if (Head(name, FieldTag::kI64)) v = static_cast<int64_t>(in.ReadU64());
    }
    void Field(std::string_view name, double& v) {
      if (Head(name, FieldTag::kF64)) v = in.ReadF64();
    }
    void Field(std::string_view name, std::string& v) {
      if (!Head(name, FieldTag::kString)) return;
      const uint32_t len = in.ReadU32();
      v.clear();
      v.reserve(len);
      for (uint32_t i = 0; i < len && in.ok(); ++i) {
        v.push_back(static_cast<char>(in.ReadU8()));
      }
    }
    void Field(std::string_view name, std::vector<uint64_t>& v) {
      if (!Head(name, FieldTag::kVecU64)) return;
      const uint32_t len = in.ReadU32();
      v.clear();
      for (uint32_t i = 0; i < len && in.ok(); ++i) v.push_back(in.ReadU64());
    }
    void Field(std::string_view name, std::vector<std::string>& v) {
      if (!Head(name, FieldTag::kVecString)) return;
      const uint32_t len = in.ReadU32();
      v.clear();
      for (uint32_t i = 0; i < len && in.ok(); ++i) {
        const uint32_t slen = in.ReadU32();
        std::string s;
        s.reserve(slen);
        for (uint32_t j = 0; j < slen && in.ok(); ++j) {
          s.push_back(static_cast<char>(in.ReadU8()));
        }
        v.push_back(std::move(s));
      }
    }

   private:
    bool Head(std::string_view name, FieldTag tag) {
      if (!ok) return false;
      if (in.ReadString() != name ||
          in.ReadU8() != static_cast<uint8_t>(tag) || !in.ok()) {
        ok = false;
        return false;
      }
      return true;
    }
  };
};

// ---------------------------------------------------------------------------
// CompactCodec
// ---------------------------------------------------------------------------

/// Registration-based codec (Kryo-like). Types must be registered, in the
/// same order on both peers, before encoding or decoding.
class CompactCodec {
 public:
  /// Registers message type M and assigns it the next dense id.
  /// Registering the same type twice aborts (mirrors Kryo's strictness).
  template <typename M>
  void Register() {
    const std::string_view name = M::kTypeName;
    KV_CHECK(ids_.find(name) == ids_.end());
    ids_[name] = next_id_++;
  }

  /// True if M has been registered.
  template <typename M>
  bool IsRegistered() const {
    return ids_.find(std::string_view(M::kTypeName)) != ids_.end();
  }

  /// Appends the encoded message; aborts if M was never registered.
  template <typename M>
  void Encode(const M& msg, WireBuffer& out) const {
    out.WriteVarint(IdOf<M>());
    Writer w{out};
    const_cast<M&>(msg).Visit(w);
  }

  /// Decodes one message of the expected type.
  template <typename M>
  Result<M> Decode(std::span<const std::byte> data) const {
    WireReader r(data);
    const uint64_t id = r.ReadVarint();
    if (!r.ok() || id != IdOf<M>()) {
      return Status::Corruption("compact: type id mismatch");
    }
    M msg{};
    Reader rd{r};
    msg.Visit(rd);
    if (!r.ok()) return Status::Corruption("compact: body decode");
    return msg;
  }

  size_t registered_count() const { return ids_.size(); }

 private:
  template <typename M>
  uint32_t IdOf() const {
    auto it = ids_.find(std::string_view(M::kTypeName));
    KV_CHECK(it != ids_.end());  // unregistered type: programming error
    return it->second;
  }

  struct Writer {
    WireBuffer& out;
    void Field(std::string_view, uint32_t& v) { out.WriteVarint(v); }
    void Field(std::string_view, uint64_t& v) { out.WriteVarint(v); }
    void Field(std::string_view, int64_t& v) { out.WriteZigZag(v); }
    void Field(std::string_view, double& v) { out.WriteF64(v); }
    void Field(std::string_view, std::string& v) { out.WriteString(v); }
    void Field(std::string_view, std::vector<uint64_t>& v) {
      out.WriteVarint(v.size());
      for (uint64_t x : v) out.WriteVarint(x);
    }
    void Field(std::string_view, std::vector<std::string>& v) {
      out.WriteVarint(v.size());
      for (auto& s : v) out.WriteString(s);
    }
  };

  struct Reader {
    WireReader& in;
    void Field(std::string_view, uint32_t& v) {
      v = static_cast<uint32_t>(in.ReadVarint());
    }
    void Field(std::string_view, uint64_t& v) { v = in.ReadVarint(); }
    void Field(std::string_view, int64_t& v) { v = in.ReadZigZag(); }
    void Field(std::string_view, double& v) { v = in.ReadF64(); }
    void Field(std::string_view, std::string& v) { v = in.ReadString(); }
    void Field(std::string_view, std::vector<uint64_t>& v) {
      const uint64_t len = in.ReadVarint();
      v.clear();
      // Every element takes at least one byte: never reserve past what
      // is present.
      v.reserve(static_cast<size_t>(std::min<uint64_t>(len, in.remaining())));
      for (uint64_t i = 0; i < len && in.ok(); ++i)
        v.push_back(in.ReadVarint());
    }
    void Field(std::string_view, std::vector<std::string>& v) {
      const uint64_t len = in.ReadVarint();
      v.clear();
      for (uint64_t i = 0; i < len && in.ok(); ++i)
        v.push_back(in.ReadString());
    }
  };

  std::map<std::string_view, uint32_t> ids_;
  uint32_t next_id_ = 1;
};

/// Encoded size of `msg` under the tagged codec.
template <typename M>
size_t TaggedEncodedSize(const M& msg) {
  WireBuffer buf;
  TaggedCodec::Encode(msg, buf);
  return buf.size();
}

/// Encoded size of `msg` under `codec`.
template <typename M>
size_t CompactEncodedSize(const CompactCodec& codec, const M& msg) {
  WireBuffer buf;
  codec.Encode(msg, buf);
  return buf.size();
}

}  // namespace kvscale
