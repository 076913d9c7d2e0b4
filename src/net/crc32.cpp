#include "net/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MYRI_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace myri::net {

namespace {

// Slicing-by-8: table k advances a byte k positions further through the
// register, so eight input bytes fold in one step of eight lookups. The
// values are those of the classic byte-at-a-time loop over table 0.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();
static_assert(kCrcTables[0][1] == 0x77073096u);
static_assert(kCrcTables[0][255] == 0x2d02ef8du);

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_fold_table(std::uint32_t c, const std::uint8_t* p,
                               std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

std::uint32_t crc32_fold_table(std::uint32_t c,
                               std::span<const std::uint64_t> words,
                               const std::uint8_t* p, std::size_t n) {
  for (const std::uint64_t w : words) {
    std::uint8_t b[8] = {};
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(w >> (8 * i));
    c = crc32_fold_table(c, b, 8);
  }
  return crc32_fold_table(c, p, n);
}

#ifdef MYRI_CRC32_CLMUL
namespace {

#define MYRI_CLMUL __attribute__((target("pclmul,ssse3")))

// The state between blocks is one pending 128-bit block: its remainder is
// still to be taken after the bytes that follow it. Folding it D bytes
// further multiplies its halves by x^(8D+32) and x^(8D-32) mod P(x),
// bit-reflected and shifted left by one (Gopal et al.); adding the block
// it lands on keeps the invariant. k5 and mu/P' finish the reduction.
struct FoldBy {
  long long lo, hi;
};
constexpr FoldBy k16 = {0x1751997d0, 0x0ccaa009e};
constexpr FoldBy k32 = {0x0f1da05aa, 0x15a546366};
constexpr FoldBy k48 = {0x03db1ecdc, 0x174359406};
constexpr FoldBy k64 = {0x154442bd4, 0x1c6e41596};
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

MYRI_CLMUL inline __m128i fold(__m128i x, FoldBy k) {
  const __m128i kk = _mm_set_epi64x(k.hi, k.lo);
  return _mm_xor_si128(_mm_clmulepi64_si128(x, kk, 0x00),
                       _mm_clmulepi64_si128(x, kk, 0x11));
}

MYRI_CLMUL inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Two words, each read whole: stores of those words forward to the loads.
MYRI_CLMUL inline __m128i load_words(const std::uint64_t* w) {
  const __m128d lo = _mm_castsi128_pd(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w)));
  return _mm_castpd_si128(
      _mm_loadh_pd(lo, reinterpret_cast<const double*>(w + 1)));
}

// Fold every whole block of [p, p + n) into x; leaves p, n at the rest.
MYRI_CLMUL inline __m128i fold_blocks(__m128i x, const std::uint8_t*& p,
                                      std::size_t& n) {
  if (n >= 64) {
    // Four independent lanes, each folded 64 bytes ahead, then merged.
    __m128i x1 = _mm_xor_si128(fold(x, k16), load128(p)),
            x2 = load128(p + 16), x3 = load128(p + 32), x4 = load128(p + 48);
    p += 64;
    n -= 64;
    for (; n >= 64; p += 64, n -= 64) {
      x1 = _mm_xor_si128(fold(x1, k64), load128(p));
      x2 = _mm_xor_si128(fold(x2, k64), load128(p + 16));
      x3 = _mm_xor_si128(fold(x3, k64), load128(p + 32));
      x4 = _mm_xor_si128(fold(x4, k64), load128(p + 48));
    }
    // The lanes hold consecutive blocks, x4 the last: fold each to it.
    x = _mm_xor_si128(_mm_xor_si128(fold(x1, k48), fold(x2, k32)),
                      _mm_xor_si128(fold(x3, k16), x4));
  }
  for (; n >= 16; p += 16, n -= 16) {
    x = _mm_xor_si128(fold(x, k16), load128(p));
  }
  return x;
}

// The 0-15 bytes at p in the low bytes of a block, zeros above, read
// without touching memory outside [p, p + n).
MYRI_CLMUL inline __m128i load_partial(const std::uint8_t* p, std::size_t n) {
  std::uint64_t lo = 0, hi = 0;
  if (n >= 8) {
    std::memcpy(&lo, p, 8);
    if (n > 8) {
      std::memcpy(&hi, p + n - 8, 8);
      hi >>= 8 * (16 - n);
    }
  } else if (n >= 4) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, p, 4);
    std::memcpy(&b, p + n - 4, 4);
    lo = a | (static_cast<std::uint64_t>(b) >> (8 * (8 - n))) << 32;
  } else if (n > 0) {
    lo = p[0] | static_cast<std::uint64_t>(p[n / 2]) << (8 * (n / 2)) |
         static_cast<std::uint64_t>(p[n - 1]) << (8 * (n - 1));
  }
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

// Append 1-15 bytes (in t's low n bytes) to the pending block x. With
// 16 - n zero bytes in front of x, the 32 bytes are two whole blocks:
// x's first n bytes, then x's last 16 - n bytes followed by t's n.
MYRI_CLMUL inline __m128i fold_partial(__m128i x, __m128i t, std::size_t n) {
  // A mask loaded from kShift + 16 + s moves byte i + s to byte i (a
  // right shift by s bytes; a negative s shifts left); 0x80 zeroes it.
  alignas(16) static constexpr std::uint8_t kShift[48] = {
      0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
      0x80, 0x80, 0x80, 0x80, 0,    1,    2,    3,    4,    5,    6,    7,
      8,    9,    10,   11,   12,   13,   14,   15,   0x80, 0x80, 0x80, 0x80,
      0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80};
  const auto mask = [](std::size_t at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(kShift + at));
  };
  const __m128i up = mask(n);         // shift left by 16 - n bytes
  const __m128i down = mask(16 + n);  // shift right by n bytes
  const __m128i head = _mm_shuffle_epi8(x, up);  // x[0, n) at the top
  const __m128i rest =
      _mm_or_si128(_mm_shuffle_epi8(x, down), _mm_shuffle_epi8(t, up));
  return _mm_xor_si128(fold(head, k16), rest);
}

// The register value of pending block x: 128 -> 64 -> 32 bits, then a
// Barrett reduction modulo P(x).
MYRI_CLMUL inline std::uint32_t reduce(__m128i x) {
  const __m128i k16k = _mm_set_epi64x(k16.hi, k16.lo);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);
  // The low half times x^96, added to the high half.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k16k, 0x10));
  // The low 32 bits times x^64, added to the rest.
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  x = _mm_xor_si128(x, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

// Fold n bytes at p into pending block x and reduce.
MYRI_CLMUL std::uint32_t finish(__m128i x, const std::uint8_t* p,
                                std::size_t n) {
  x = fold_blocks(x, p, n);
  if (n > 0) x = fold_partial(x, load_partial(p, n), n);
  return reduce(x);
}

MYRI_CLMUL std::uint32_t start_bytes(std::uint32_t c, const std::uint8_t* p,
                                     std::size_t n) {
  const __m128i x = _mm_xor_si128(load128(p),
                                  _mm_cvtsi32_si128(static_cast<int>(c)));
  return finish(x, p + 16, n - 16);
}

MYRI_CLMUL std::uint32_t start_words(std::uint32_t c, const std::uint64_t* w,
                                     std::size_t nw, const std::uint8_t* p,
                                     std::size_t n) {
  __m128i x = _mm_xor_si128(load_words(w),
                            _mm_cvtsi32_si128(static_cast<int>(c)));
  w += 2;
  nw -= 2;
  // Two blocks at a time, folded in parallel over 32 and 16 bytes.
  for (; nw >= 4; w += 4, nw -= 4) {
    x = _mm_xor_si128(_mm_xor_si128(fold(x, k32), fold(load_words(w), k16)),
                      load_words(w + 2));
  }
  if (nw >= 2) {
    x = _mm_xor_si128(fold(x, k16), load_words(w));
    w += 2;
    nw -= 2;
  }
  if (nw == 1) {
    x = fold_partial(x, _mm_cvtsi64_si128(static_cast<long long>(*w)), 8);
  }
  return finish(x, p, n);
}

}  // namespace

std::uint32_t crc32_fold_clmul(std::uint32_t c, const std::uint8_t* p,
                               std::size_t n) {
  if (n < 16) return crc32_fold_table(c, p, n);
  return start_bytes(c, p, n);
}

std::uint32_t crc32_fold_clmul(std::uint32_t c,
                               std::span<const std::uint64_t> words,
                               const std::uint8_t* p, std::size_t n) {
  if (words.size() < 2) {
    return crc32_fold_clmul(crc32_fold_table(c, words, nullptr, 0), p, n);
  }
  return start_words(c, words.data(), words.size(), p, n);
}

bool crc32_clmul_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("ssse3");
}
#else
// No carry-less kernel on this target: crc32_clmul_supported() is false,
// so these are never selected; they forward to the table for the tests.
std::uint32_t crc32_fold_clmul(std::uint32_t c, const std::uint8_t* p,
                               std::size_t n) {
  return crc32_fold_table(c, p, n);
}

std::uint32_t crc32_fold_clmul(std::uint32_t c,
                               std::span<const std::uint64_t> words,
                               const std::uint8_t* p, std::size_t n) {
  return crc32_fold_table(c, words, p, n);
}

bool crc32_clmul_supported() { return false; }
#endif

namespace {
const bool kUseClmul = crc32_clmul_supported();
}  // namespace

std::uint32_t crc32_fold(std::uint32_t c, const std::uint8_t* p,
                         std::size_t n) {
  return kUseClmul ? crc32_fold_clmul(c, p, n) : crc32_fold_table(c, p, n);
}

std::uint32_t crc32_fold(std::uint32_t c, std::span<const std::uint64_t> words,
                         const std::uint8_t* p, std::size_t n) {
  return kUseClmul ? crc32_fold_clmul(c, words, p, n)
                   : crc32_fold_table(c, words, p, n);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  return crc32_fold(seed, data, len) ^ 0xffffffffu;
}

}  // namespace myri::net
