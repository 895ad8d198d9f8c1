#include "store/mapped_buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace kvscale {

namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

size_t RoundUpToPage(size_t bytes) {
  const size_t page = PageSize();
  return (bytes + page - 1) / page * page;
}

#if defined(__SANITIZE_THREAD__)
#define KVSCALE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KVSCALE_TSAN 1
#endif
#endif

void* MapAnonymous(size_t bytes) {
  return ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}

/// Moves a mapping of `old_bytes` to one of `new_bytes` (larger).
void* GrowMapping(void* old, size_t old_bytes, size_t new_bytes) {
#if defined(KVSCALE_TSAN)
  // ThreadSanitizer intercepts mmap and munmap but not mremap: pages
  // moved behind its back keep the shadow state of whatever mapping
  // another thread last had at the new address, and it reports a race
  // between two mappings that never lived at once. Grow by copying.
  void* grown = MapAnonymous(new_bytes);
  if (grown != MAP_FAILED) {
    std::memcpy(grown, old, old_bytes);
    ::munmap(old, old_bytes);
  }
  return grown;
#else
  return ::mremap(old, old_bytes, new_bytes, MREMAP_MAYMOVE);
#endif
}

}  // namespace

MappedBuffer::~MappedBuffer() { Release(); }

MappedBuffer::MappedBuffer(MappedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

MappedBuffer& MappedBuffer::operator=(MappedBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

void MappedBuffer::Release() {
  if (data_ != nullptr) ::munmap(data_, capacity_);
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

void MappedBuffer::Reserve(size_t capacity) {
  if (capacity <= capacity_) return;
  // Doubling keeps appends amortised O(1); mremap moves page tables, not
  // bytes, so a grown image is never copied (outside ThreadSanitizer
  // builds, see GrowMapping).
  const size_t wanted = RoundUpToPage(std::max(capacity, capacity_ * 2));
  void* grown = data_ == nullptr ? MapAnonymous(wanted)
                                 : GrowMapping(data_, capacity_, wanted);
  KV_CHECK(grown != MAP_FAILED);  // out of address space, like bad_alloc
  data_ = static_cast<std::byte*>(grown);
  capacity_ = wanted;
}

void MappedBuffer::Append(std::span<const std::byte> bytes) {
  if (bytes.empty()) return;
  Reserve(size_ + bytes.size());
  std::memcpy(data_ + size_, bytes.data(), bytes.size());
  size_ += bytes.size();
}

void MappedBuffer::Resize(size_t size) {
  if (size > size_) {
    Reserve(size);
    std::memset(data_ + size_, 0, size - size_);
  }
  size_ = size;
}

void MappedBuffer::ShrinkToFit() {
  if (size_ == 0) {
    Release();
    return;
  }
  const size_t wanted = RoundUpToPage(size_);
  if (wanted >= capacity_) return;
  // Shrinking in place cannot fail for lack of room.
  void* shrunk = ::mremap(data_, capacity_, wanted, 0);
  KV_CHECK(shrunk != MAP_FAILED);
  capacity_ = wanted;
}

}  // namespace kvscale
