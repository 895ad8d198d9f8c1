// Growable storage held in one anonymous memory mapping instead of on the
// malloc heap.
//
// Segment images live here. A segment is written once, read for a while
// and dropped by a later compaction; on the heap, each large retired
// image left freed arena memory behind (and each freed large vector raised
// glibc's dynamic mmap threshold, pushing later allocations back into the
// arenas). A mapping is grown and trimmed in place with mremap and handed
// back to the kernel with munmap the moment its owner drops it.
//
// AddressSanitizer does not track mapped pages: an overrun inside the
// mapping is not reported, and nothing poisons a mapping after munmap
// beyond the page fault. Readers therefore stay in bounds through the
// owner's own offsets, and a mapping's lifetime follows ownership (a
// segment's image lives exactly as long as the last
// shared_ptr<const Segment>).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

namespace kvscale {

/// A byte buffer in a private anonymous mapping. Move-only.
class MappedBuffer {
 public:
  MappedBuffer() = default;
  ~MappedBuffer();
  MappedBuffer(MappedBuffer&& other) noexcept;
  MappedBuffer& operator=(MappedBuffer&& other) noexcept;
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  /// Bytes actually mapped: whole pages, 0 when nothing is.
  size_t mapped_bytes() const { return capacity_; }

  void Append(std::span<const std::byte> bytes);
  /// Sets the size; new bytes are zero.
  void Resize(size_t size);
  /// Unmaps the pages beyond size().
  void ShrinkToFit();

 private:
  void Reserve(size_t capacity);
  void Release();

  std::byte* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// A MappedBuffer used as a growable array of trivially copyable T.
template <typename T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  void push_back(const T& value) {
    bytes_.Append(std::as_bytes(std::span<const T>(&value, 1)));
  }
  size_t size() const { return bytes_.size() / sizeof(T); }
  bool empty() const { return bytes_.size() == 0; }
  std::span<const T> view() const {
    return {reinterpret_cast<const T*>(bytes_.data()), size()};
  }
  std::span<const std::byte> bytes() const {
    return {bytes_.data(), bytes_.size()};
  }

 private:
  MappedBuffer bytes_;
};

}  // namespace kvscale
