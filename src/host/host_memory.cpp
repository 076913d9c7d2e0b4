#include "host/host_memory.hpp"

#include <algorithm>
#include <cstring>

namespace myri::host {

std::span<std::byte> HostMemory::at(DmaAddr addr, std::size_t len) {
  if (addr > mem_.size() || len > mem_.size() - addr) return {};
  return {mem_.data() + addr, len};
}

std::span<const std::byte> HostMemory::at(DmaAddr addr,
                                          std::size_t len) const {
  if (addr > mem_.size() || len > mem_.size() - addr) return {};
  return {mem_.data() + addr, len};
}

// An empty span may carry a null data(), which memcpy must never see
// (even for zero bytes): zero-length transfers skip the copy.
bool HostMemory::write(DmaAddr addr, std::span<const std::byte> data) {
  auto dst = at(addr, data.size());
  if (dst.size() != data.size()) return false;
  if (!data.empty()) std::memcpy(dst.data(), data.data(), data.size());
  return true;
}

bool HostMemory::read(DmaAddr addr, std::span<std::byte> out) const {
  auto src = at(addr, out.size());
  if (src.size() != out.size()) return false;
  if (!out.empty()) std::memcpy(out.data(), src.data(), out.size());
  return true;
}

std::optional<DmaAddr> PinnedAllocator::alloc(std::size_t len,
                                              std::size_t align) {
  if (len == 0) len = 1;
  // First-fit over the free list.
  for (std::size_t i = 0; i < free_list_.size(); ++i) {
    Region& r = free_list_[i];
    const DmaAddr aligned = (r.addr + align - 1) / align * align;
    const std::size_t pad = static_cast<std::size_t>(aligned - r.addr);
    if (r.len >= pad + len) {
      const DmaAddr out = aligned;
      // Shrink or remove the free region (leading pad is wasted; fine for
      // a simulator allocator).
      r.addr = aligned + len;
      r.len -= pad + len;
      if (r.len == 0) free_list_.erase(free_list_.begin() + i);
      live_[out] = len;
      in_use_ += len;
      return out;
    }
  }
  const DmaAddr aligned = (next_ + align - 1) / align * align;
  if (aligned + len > base_ + len_) return std::nullopt;
  next_ = aligned + len;
  live_[aligned] = len;
  in_use_ += len;
  return aligned;
}

void PinnedAllocator::free(DmaAddr addr) {
  auto it = live_.find(addr);
  if (it == live_.end()) return;
  free_list_.push_back({addr, it->second});
  in_use_ -= it->second;
  live_.erase(it);
}

bool PinnedAllocator::is_pinned(DmaAddr addr, std::size_t len) const {
  // A DMA is safe if it is fully contained in one live allocation.
  for (const auto& [a, l] : live_) {
    if (addr >= a && addr + len <= a + l) return true;
  }
  return false;
}

void PageHashTable::map(std::uint8_t port, std::uint64_t vaddr, DmaAddr dma) {
  table_[key(port, vaddr / kPageSize)] = dma / kPageSize * kPageSize;
}

void PageHashTable::unmap_port(std::uint8_t port) {
  for (auto it = table_.begin(); it != table_.end();) {
    if ((it->first >> 52) == port) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<DmaAddr> PageHashTable::lookup(std::uint8_t port,
                                             std::uint64_t vaddr) const {
  auto it = table_.find(key(port, vaddr / kPageSize));
  if (it == table_.end()) return std::nullopt;
  return it->second + vaddr % kPageSize;
}

}  // namespace myri::host
