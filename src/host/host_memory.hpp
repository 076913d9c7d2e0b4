// Host DRAM, pinned DMA regions, and the page hash table.
//
// GM's zero-copy model requires user buffers to live in pinned (unswappable)
// pages so the NIC can DMA them directly (paper Section 2). The page hash
// table maps (port, user virtual page) -> DMA address; it lives in host
// memory and the MCP caches entries in SRAM. We use identity virtual->DMA
// mapping, but the table and its restoration after a card reset are real:
// the MCP refuses DMA for unmapped pages, so a recovery that forgot to
// re-register the table would fail visibly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "host/zero_pages.hpp"

namespace myri::host {

/// Physical/DMA address in host memory.
using DmaAddr = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;

/// Host DRAM of a fixed logical size, zero at start. Backed by ZeroPages,
/// so only the pages a node writes become resident. Move-only.
class HostMemory {
 public:
  explicit HostMemory(std::size_t bytes) : mem_(bytes) {}

  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

  /// Bounds-checked span; empty span if [addr, addr+len) is out of range.
  [[nodiscard]] std::span<std::byte> at(DmaAddr addr, std::size_t len);
  [[nodiscard]] std::span<const std::byte> at(DmaAddr addr,
                                              std::size_t len) const;

  /// Copy helpers; return false (and touch nothing) when out of range.
  bool write(DmaAddr addr, std::span<const std::byte> data);
  bool read(DmaAddr addr, std::span<std::byte> out) const;

 private:
  ZeroPages mem_;
};

/// Bump-with-free-list allocator over a pinned window of host memory.
/// Tracks which ranges are pinned so the NIC-side DMA checker can flag
/// wild DMA (the "host computer crash" failure mode of Table 1).
class PinnedAllocator {
 public:
  PinnedAllocator(DmaAddr base, std::size_t len)
      : base_(base), len_(len), next_(base) {}

  /// Allocate a pinned region; returns std::nullopt when exhausted.
  std::optional<DmaAddr> alloc(std::size_t len, std::size_t align = 64);

  /// Release a region previously returned by alloc().
  void free(DmaAddr addr);

  /// True if [addr, addr+len) lies entirely within currently pinned memory.
  [[nodiscard]] bool is_pinned(DmaAddr addr, std::size_t len) const;

  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }

 private:
  struct Region {
    DmaAddr addr;
    std::size_t len;
  };
  DmaAddr base_;
  std::size_t len_;
  DmaAddr next_;
  std::size_t in_use_ = 0;
  std::unordered_map<DmaAddr, std::size_t> live_;   // addr -> len
  std::vector<Region> free_list_;
};

/// (port, virtual page) -> DMA page. Big, so host-resident; the MCP caches
/// entries in SRAM and re-fetches after recovery (paper Section 4.3).
///
/// Open addressing over one power-of-two array with linear probing: every
/// message translates its buffer three times, and a probe that starts at
/// a multiplicative hash of the key usually ends on its first slot.
/// Nothing iterates the table, so its layout cannot reach behaviour.
class PageHashTable {
 public:
  /// Map the page holding `vaddr` on `port` to the page holding `dma`
  /// (a remap overwrites).
  void map(std::uint8_t port, std::uint64_t vaddr, DmaAddr dma);
  /// Drop every mapping of `port`, rebuilding the table without them.
  void unmap_port(std::uint8_t port);

  /// Lookup by any address within a mapped page.
  [[nodiscard]] std::optional<DmaAddr> lookup(std::uint8_t port,
                                              std::uint64_t vaddr) const;

  /// Mappings held.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr int kPortShift = 52;
  // No (port, page) key has its top four bits set.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinSlots = 64;
  struct Slot {
    std::uint64_t key = kEmpty;
    DmaAddr page = 0;
  };
  static std::uint64_t key(std::uint8_t port, std::uint64_t vpage) {
    return (static_cast<std::uint64_t>(port) << kPortShift) | vpage;
  }
  [[nodiscard]] std::size_t home(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // The slot holding `k`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::uint64_t k) const noexcept;
  // Start over with `slots` empty slots (a power of two).
  void reset(std::size_t slots);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace myri::host
