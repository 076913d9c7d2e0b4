// CRC-32 (IEEE 802.3 polynomial, bit-reflected), as Myrinet packets carry.
//
// Two kernels compute the same function. The slicing-by-8 table kernel
// runs anywhere and is the reference. On x86-64 CPUs with PCLMULQDQ,
// crc32() folds 16-byte blocks with carry-less multiplies instead (Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009) and leaves the last 0-15 bytes to the table.
// The kernel is chosen once, from the CPU the process runs on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace myri::net {

/// Standard CRC-32; `seed` is the pre-inverted register (chain a CRC over
/// several buffers by passing crc32(...) ^ 0xffffffff as the next seed).
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0xffffffffu);

/// Fold `n` bytes into the running (pre-inverted) CRC register `c` with
/// the kernel this CPU runs.
std::uint32_t crc32_fold(std::uint32_t c, const std::uint8_t* p,
                         std::size_t n);

/// Fold `words`, each as its eight little-endian bytes, and then `n` bytes
/// at `p`, as one message in one pass. The carry-less kernel reads each
/// word whole, so words stored just before the call (a packet header
/// assembled on the stack) forward from their stores instead of waiting
/// for them to reach the cache.
std::uint32_t crc32_fold(std::uint32_t c, std::span<const std::uint64_t> words,
                         const std::uint8_t* p, std::size_t n);

/// The two kernels, for tests and measurements. crc32_fold_clmul() may
/// only be called when crc32_clmul_supported().
std::uint32_t crc32_fold_table(std::uint32_t c, const std::uint8_t* p,
                               std::size_t n);
std::uint32_t crc32_fold_table(std::uint32_t c,
                               std::span<const std::uint64_t> words,
                               const std::uint8_t* p, std::size_t n);
std::uint32_t crc32_fold_clmul(std::uint32_t c, const std::uint8_t* p,
                               std::size_t n);
std::uint32_t crc32_fold_clmul(std::uint32_t c,
                               std::span<const std::uint64_t> words,
                               const std::uint8_t* p, std::size_t n);
bool crc32_clmul_supported();

}  // namespace myri::net
