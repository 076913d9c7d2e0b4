// LANai on-board SRAM.
//
// Stores the MCP image (including the interpreted send_chunk code the fault
// campaign flips bits in), packet staging buffers, descriptor rings and the
// FTD's magic word. Byte-addressable, little-endian 32-bit accessors.
// Backed by host::ZeroPages: only the pages the card writes are resident,
// and clear() drops them instead of writing 1 MiB of zeros. Move-only.
//
// Code watch: the MCP names the range it loaded its program into, and
// every write that may change a byte there (write8/write32, a mutable
// bytes() view, flip_bit, clear) bumps code_epoch(). While the epoch is
// the one the MCP saw after loading, the code is byte-for-byte its image.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
    touch(addr, 1);
    mem_.data()[addr] = static_cast<std::byte>(v);
  }
  [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint32_t v = 0;
      std::memcpy(&v, mem_.data() + addr, sizeof v);
      return v;
    } else {
      return static_cast<std::uint32_t>(read8(addr)) |
             static_cast<std::uint32_t>(read8(addr + 1)) << 8 |
             static_cast<std::uint32_t>(read8(addr + 2)) << 16 |
             static_cast<std::uint32_t>(read8(addr + 3)) << 24;
    }
  }
  void write32(std::uint32_t addr, std::uint32_t v) {
    touch(addr, 4);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(mem_.data() + addr, &v, sizeof v);
    } else {
      for (unsigned i = 0; i < 4; ++i) {
        mem_.data()[addr + i] = static_cast<std::byte>(v >> (8 * i));
      }
    }
  }

  /// A writable view counts as a write to every byte it covers.
  [[nodiscard]] std::span<std::byte> bytes(std::uint32_t addr,
                                           std::size_t len) {
    if (!in_range(addr, len)) return {};
    touch(addr, len);
    return {mem_.data() + addr, len};
  }
  [[nodiscard]] std::span<const std::byte> bytes(std::uint32_t addr,
                                                 std::size_t len) const {
    if (!in_range(addr, len)) return {};
    return {mem_.data() + addr, len};
  }

  /// Zero the whole SRAM (card reset / FTD clear step).
  void clear() noexcept {
    ++code_epoch_;
    mem_.zero();
  }

  /// Flip one bit (fault injection).
  void flip_bit(std::uint32_t addr, unsigned bit) {
    touch(addr, 1);
    mem_.data()[addr] ^= static_cast<std::byte>(1u << (bit & 7u));
  }

  /// Watch [addr, addr + len) from now on (replacing any earlier range).
  void watch_code(std::uint32_t addr, std::uint32_t len) noexcept {
    code_lo_ = addr;
    code_hi_ = static_cast<std::size_t>(addr) + len;
  }
  /// Bumped by every write that may have changed a watched byte.
  [[nodiscard]] std::uint64_t code_epoch() const noexcept {
    return code_epoch_;
  }

 private:
  void touch(std::uint32_t addr, std::size_t len) noexcept {
    if (addr < code_hi_ && addr + len > code_lo_) ++code_epoch_;
  }

  host::ZeroPages mem_;
  std::size_t code_lo_ = 0;
  std::size_t code_hi_ = 0;  // empty watch: nothing bumps but clear()
  std::uint64_t code_epoch_ = 0;
};

}  // namespace myri::lanai
