#include "common/mapped.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define POD_HAVE_MMAP 1
#endif

namespace pod {

namespace detail {

namespace {
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
}  // namespace

void* os_zeroed_pages(std::size_t bytes, bool huge) {
  if (bytes == 0) return nullptr;
#ifdef POD_HAVE_MMAP
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  // A small-page array says so too, in case huge pages are the default.
  if (bytes >= kHugePageBytes)
    ::madvise(p, bytes, huge ? MADV_HUGEPAGE : MADV_NOHUGEPAGE);
#else
  (void)huge;
#endif
  return p;
#else
  (void)huge;
  void* p = std::calloc(bytes, 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
#endif
}

void os_release_pages(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#ifdef POD_HAVE_MMAP
  ::munmap(p, bytes);
#else
  (void)bytes;
  std::free(p);
#endif
}

}  // namespace detail

namespace {

std::byte* aligned_buffer(std::size_t bytes) {
  return static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{FileImage::kAlign}));
}

}  // namespace

FileImage::~FileImage() {
  if (data_ == nullptr) return;
#ifdef POD_HAVE_MMAP
  if (mapped_) {
    ::munmap(const_cast<std::byte*>(data_), size_);
    return;
  }
#endif
  ::operator delete(const_cast<std::byte*>(data_),
                    std::align_val_t{kAlign});
}

void FileImage::release(std::size_t offset, std::size_t len) const {
#ifdef POD_HAVE_MMAP
  if (!mapped_ || offset > size_ || len > size_ - offset) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t begin = (offset + page - 1) / page * page;
  const std::size_t end = (offset + len) / page * page;
  if (begin < end)
    // Swap the pages for an inaccessible reservation rather than
    // unmapping them: a hole could be reused by another mapping, which the
    // destructor's munmap of the whole image would then tear down.
    ::mmap(const_cast<std::byte*>(data_) + begin, end - begin, PROT_NONE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED | MAP_NORESERVE, -1, 0);
#else
  (void)offset;
  (void)len;
#endif
}

FileImage FileImage::map(const std::string& path) {
#ifdef POD_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat " + path);
  }
  FileImage image;
  if (st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;  // fault every page in now, in one kernel pass
#endif
    void* p = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("cannot map " + path);
    }
    image.data_ = static_cast<const std::byte*>(p);
    image.size_ = size;
    image.mapped_ = true;
  }
  ::close(fd);  // the mapping keeps the inode alive
  return image;
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read(in);
#endif
}

FileImage FileImage::read(std::istream& in) {
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  FileImage image;
  if (bytes.empty()) return image;
  std::byte* buf = aligned_buffer(bytes.size());
  std::memcpy(buf, bytes.data(), bytes.size());
  image.data_ = buf;
  image.size_ = bytes.size();
  return image;
}

}  // namespace pod
