// Page-granular memory straight from the OS, for the engine tables and the
// trace image.
//
// ZeroedArray<T>: an array whose storage is anonymous mmap. The kernel
// hands out zero pages on first touch, so construction is O(1) instead of
// a memset of the whole array, and untouched pages never become resident.
// Not calloc: glibc's dynamic mmap threshold rises after the first large
// free, so a second 10-30 MB calloc comes from the heap and is memset
// again, and freed heap memory stays in the process between passes.
// Arrays of 2 MB and more ask for transparent huge pages: the replay then
// takes one fault per 2 MB instead of per 4 KB, and its random probes
// into these arrays miss the TLB far less. A sparse array (one that
// touches a few scattered entries of a large range) opts out with
// Pages::kSmall, so each touch zeroes 4 KB, not 2 MB. resize() copies the contents
// into a fresh zeroed array. T must be trivially copyable, and its
// all-zero byte pattern must be its value-initialised state (integers,
// Fingerprint).
//
// PagedVector<T>: a push_back array over a ZeroedArray, for slot pools
// that grow one entry at a time. Storage past size() is never written,
// so it stays zero and off the resident set: a table can reserve what its
// capacities allow up front for the cost of address space.
//
// FileImage: the read-only bytes of one whole file, mapped with
// MAP_POPULATE (one kernel pass, no copy through a stream buffer), or of a
// stream, read into a 64-byte-aligned heap buffer. Mapped images alias the
// file's page cache: the file must not shrink in place while the image is
// alive (replace it by writing a temp file and renaming it over the old
// name, which leaves the mapped inode intact).
#pragma once

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

namespace pod {

namespace detail {
/// `bytes` of zero-filled, page-aligned anonymous memory (nullptr for 0),
/// asking for transparent huge pages from 2 MB up when `huge`. Throws
/// std::bad_alloc when the OS refuses.
void* os_zeroed_pages(std::size_t bytes, bool huge = true);
/// Returns memory from os_zeroed_pages (no-op for nullptr).
void os_release_pages(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// The page size a ZeroedArray asks for (see the header comment).
enum class Pages { kHuge, kSmall };

template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "ZeroedArray hands out raw zero pages as T objects");

 public:
  ZeroedArray() = default;
  explicit ZeroedArray(std::size_t n, Pages pages = Pages::kHuge)
      : data_(static_cast<T*>(
            detail::os_zeroed_pages(bytes_for(n), pages == Pages::kHuge))),
        size_(n) {}
  ~ZeroedArray() { detail::os_release_pages(data_, size_ * sizeof(T)); }

  ZeroedArray(ZeroedArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroedArray& operator=(ZeroedArray&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  /// Resizes to `n` elements, keeping the first min(size(), n) and zeroing
  /// the rest: a copy into fresh zero pages, so only the kept elements'
  /// pages become resident. Pointers into the array are invalidated.
  void resize(std::size_t n) {
    ZeroedArray other(n);
    const std::size_t keep = size_ < n ? size_ : n;
    if (keep > 0) std::memcpy(other.data_, data_, keep * sizeof(T));
    *this = std::move(other);
  }

 private:
  static std::size_t bytes_for(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    return n * sizeof(T);
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

template <typename T>
class PagedVector {
 public:
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return buf_[i]; }
  const T& operator[](std::size_t i) const { return buf_[i]; }

  /// Makes room for `n` elements; pages past size() stay untouched (only
  /// the elements in use are copied, so reserving twice touches nothing).
  void reserve(std::size_t n) {
    if (n <= buf_.size()) return;
    ZeroedArray<T> grown(n);
    if (size_ > 0) std::memcpy(grown.data(), buf_.data(), size_ * sizeof(T));
    buf_ = std::move(grown);
  }

  void push_back(const T& v) {
    if (size_ == buf_.size()) reserve(size_ < 64 ? 64 : 2 * size_);
    buf_[size_++] = v;
  }

  /// Appends zero elements up to `n` (they need no write: never-written
  /// storage is zero).
  void extend_to(std::size_t n) {
    reserve(n);
    if (n > size_) size_ = n;
  }

  /// Drops every element and returns the pages to the OS.
  void clear() {
    buf_ = ZeroedArray<T>();
    size_ = 0;
  }

 private:
  ZeroedArray<T> buf_;
  std::size_t size_ = 0;
};

class FileImage {
 public:
  /// Alignment of data() for every non-empty image.
  static constexpr std::size_t kAlign = 64;

  FileImage() = default;
  ~FileImage();
  FileImage(FileImage&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        mapped_(std::exchange(o.mapped_, false)) {}
  FileImage& operator=(FileImage&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(mapped_, o.mapped_);
    return *this;
  }
  FileImage(const FileImage&) = delete;
  FileImage& operator=(const FileImage&) = delete;

  /// Maps the whole file read-only. Throws std::runtime_error when it
  /// cannot be opened or mapped.
  static FileImage map(const std::string& path);
  /// Reads the rest of `in` into an aligned heap buffer.
  static FileImage read(std::istream& in);

  std::span<const std::byte> bytes() const { return {data_, size_}; }
  bool empty() const { return size_ == 0; }

  /// Promises that [offset, offset + len) will not be read again. A mapped
  /// image drops the whole pages inside the range: they leave the resident
  /// set and become inaccessible, so a stray read faults loudly. A heap
  /// image keeps them.
  void release(std::size_t offset, std::size_t len) const;

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

}  // namespace pod
