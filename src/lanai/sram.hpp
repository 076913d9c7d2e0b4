// LANai on-board SRAM.
//
// Stores the MCP image (including the interpreted send_chunk code the fault
// campaign flips bits in), packet staging buffers, descriptor rings and the
// FTD's magic word. Byte-addressable, little-endian 32-bit accessors.
// Backed by host::ZeroPages: only the pages the card writes are resident,
// and clear() drops them instead of writing 1 MiB of zeros. Move-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "host/zero_pages.hpp"

namespace myri::lanai {

class Sram {
 public:
  explicit Sram(std::size_t bytes) : mem_(bytes) {}

  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

  [[nodiscard]] bool in_range(std::uint32_t addr,
                              std::size_t len) const noexcept {
    return addr <= mem_.size() && len <= mem_.size() - addr;
  }

  // Unchecked fast accessors (callers validate with in_range / the CPU's
  // bus checker). 32-bit accesses must be 4-byte aligned.
  [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const {
    return static_cast<std::uint8_t>(mem_.data()[addr]);
  }
  void write8(std::uint32_t addr, std::uint8_t v) {
    mem_.data()[addr] = static_cast<std::byte>(v);
  }
  [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const {
    return static_cast<std::uint32_t>(read8(addr)) |
           static_cast<std::uint32_t>(read8(addr + 1)) << 8 |
           static_cast<std::uint32_t>(read8(addr + 2)) << 16 |
           static_cast<std::uint32_t>(read8(addr + 3)) << 24;
  }
  void write32(std::uint32_t addr, std::uint32_t v) {
    write8(addr, static_cast<std::uint8_t>(v));
    write8(addr + 1, static_cast<std::uint8_t>(v >> 8));
    write8(addr + 2, static_cast<std::uint8_t>(v >> 16));
    write8(addr + 3, static_cast<std::uint8_t>(v >> 24));
  }

  [[nodiscard]] std::span<std::byte> bytes(std::uint32_t addr,
                                           std::size_t len) {
    if (!in_range(addr, len)) return {};
    return {mem_.data() + addr, len};
  }
  [[nodiscard]] std::span<const std::byte> bytes(std::uint32_t addr,
                                                 std::size_t len) const {
    if (!in_range(addr, len)) return {};
    return {mem_.data() + addr, len};
  }

  /// Zero the whole SRAM (card reset / FTD clear step).
  void clear() noexcept { mem_.zero(); }

  /// Flip one bit (fault injection).
  void flip_bit(std::uint32_t addr, unsigned bit) {
    mem_.data()[addr] ^= static_cast<std::byte>(1u << (bit & 7u));
  }

 private:
  host::ZeroPages mem_;
};

}  // namespace myri::lanai
