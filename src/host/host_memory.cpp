#include "host/host_memory.hpp"

#include <algorithm>
#include <bit>
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

std::size_t PageHashTable::probe(std::uint64_t k) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(k);
  while (slots_[i].key != k && slots_[i].key != kEmpty) i = (i + 1) & mask;
  return i;
}

void PageHashTable::reset(std::size_t slots) {
  slots_.assign(slots, Slot{});
  size_ = 0;
  shift_ = 64 - std::countr_zero(slots);
}

void PageHashTable::map(std::uint8_t port, std::uint64_t vaddr, DmaAddr dma) {
  // Keep the load at most one half, so probes stay short.
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    reset(std::max(kMinSlots, 2 * old.size()));
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      slots_[probe(s.key)] = s;
      ++size_;
    }
  }
  const std::uint64_t k = key(port, vaddr / kPageSize);
  Slot& s = slots_[probe(k)];
  if (s.key == kEmpty) ++size_;
  s = {k, dma / kPageSize * kPageSize};
}

void PageHashTable::unmap_port(std::uint8_t port) {
  if (slots_.empty()) return;
  std::vector<Slot> old = std::move(slots_);
  reset(old.size());
  for (const Slot& s : old) {
    if (s.key == kEmpty || (s.key >> kPortShift) == port) continue;
    slots_[probe(s.key)] = s;
    ++size_;
  }
}

std::optional<DmaAddr> PageHashTable::lookup(std::uint8_t port,
                                             std::uint64_t vaddr) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(key(port, vaddr / kPageSize))];
  if (s.key == kEmpty) return std::nullopt;
  return s.page + vaddr % kPageSize;
}

}  // namespace myri::host
