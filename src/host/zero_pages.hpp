// A fixed-size, zero-initialised byte region that costs memory only where
// it is written.
//
// Every node models 8 MiB of host DRAM and 1 MiB of LANai SRAM but touches
// a few hundred KiB of them. The region is a private anonymous mapping of
// the full logical size: the kernel hands out a zero-filled page on the
// first write to it, so resident memory follows what the node used, not
// what it could address. Reads of untouched pages return zero. Transparent
// huge pages are refused so residency stays page-granular whatever the
// host's THP setting. `zero()` drops every page (they read back as zero),
// which is how the FTD's SRAM clear step costs nothing. Linux semantics:
// MADV_DONTNEED on a private anonymous mapping guarantees zero-fill.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <utility>

namespace myri::host {

class ZeroPages {
 public:
  /// Maps `bytes` of zeroed memory; throws std::bad_alloc if the mapping
  /// fails. A zero-byte region maps nothing and has a null data().
  explicit ZeroPages(std::size_t bytes) : size_(bytes) {
    if (bytes == 0) return;
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    ::madvise(p, bytes, MADV_NOHUGEPAGE);
    data_ = static_cast<std::byte*>(p);
  }
  ~ZeroPages() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }

  ZeroPages(ZeroPages&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroPages& operator=(ZeroPages&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }

  /// Zero the whole region by dropping its pages.
  void zero() noexcept {
    if (data_ != nullptr) ::madvise(data_, size_, MADV_DONTNEED);
  }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_;
};

}  // namespace myri::host
