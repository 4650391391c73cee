/// \file crc32.cpp
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): a portable
/// slice-by-16 kernel and a PCLMULQDQ folding kernel, picked once per
/// process from CPUID. Both give the bytewise CRC-32 bit for bit.

#include <cstring>

#include "common/hash.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define ESP_CRC32_X86 1
#endif

namespace esp {
namespace {

/// Slice-by-16 tables, generated at compile time. `t[0]` is the classic
/// bytewise table; `t[k][b]` is the CRC contribution of byte `b` followed by
/// `k` zero bytes, so sixteen lookups fold sixteen input bytes at once.
struct Crc32Tables {
  std::uint32_t t[16][256];
};
constexpr Crc32Tables make_crc32_tables() noexcept {
  Crc32Tables tables{};
  auto& t = tables.t;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (int k = 1; k < 16; ++k)
    for (int i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return tables;
}
constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load from a possibly unaligned byte pointer
/// (compilers fold it into one load on little-endian targets).
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

/// Advance the raw (pre-inverted) CRC state `c` over `n` bytes at `p`:
/// sixteen bytes per step from four 32-bit loads, the tail bytewise.
std::uint32_t slice16(std::uint32_t c, const unsigned char* p,
                      std::size_t n) noexcept {
  const auto& t = kCrc32Tables.t;
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t w0 = load_le32(p) ^ c;
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
        t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
        t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
        t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
        t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#ifdef ESP_CRC32_X86
/// The PCLMUL kernel's functions are compiled for these extensions only;
/// they run only after cpu_has_pclmul() said yes.
#define ESP_PCLMUL __attribute__((target("pclmul,sse4.1")))

/// Load the 16-byte lane at `src + off`; with `kCopy`, also store it to
/// `dst + off`.
template <bool kCopy>
ESP_PCLMUL __m128i lane(const unsigned char* src, unsigned char* dst,
                        std::size_t off) noexcept {
  const __m128i v =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + off));
  if constexpr (kCopy)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + off), v);
  return v;
}

/// Fold accumulator `x` forward by the distance the constants `k` encode
/// and add the lane `y`.
ESP_PCLMUL __m128i fold(__m128i x, __m128i k, __m128i y) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), y);
}

/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected domain.
/// Advances the raw CRC state `c` over `n` bytes at `src`, where `n` is a
/// multiple of 16 and at least 64: four 128-bit accumulators fold 64 bytes
/// per step, then fold into one, which takes the remaining 16-byte lanes;
/// the 128-bit remainder is reduced to 64 and then 32 bits (Barrett). With
/// `kCopy` every lane loaded is also stored to `dst`, so the copy costs no
/// second pass over the source.
template <bool kCopy>
ESP_PCLMUL std::uint32_t fold_pclmul(std::uint32_t c, const unsigned char* src,
                                     unsigned char* dst,
                                     std::size_t n) noexcept {
  // Bit-reflected constants from the paper: k1/k2 fold a lane 512 bits
  // forward, k3/k4 128 bits, k5 folds 96 bits to 64; P' (the polynomial)
  // and mu (x^64 / P) drive the Barrett reduction.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(lane<kCopy>(src, dst, 0x00),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = lane<kCopy>(src, dst, 0x10);
  __m128i x3 = lane<kCopy>(src, dst, 0x20);
  __m128i x4 = lane<kCopy>(src, dst, 0x30);
  std::size_t off = 64;
  for (; n - off >= 64; off += 64) {
    x1 = fold(x1, k1k2, lane<kCopy>(src, dst, off + 0x00));
    x2 = fold(x2, k1k2, lane<kCopy>(src, dst, off + 0x10));
    x3 = fold(x3, k1k2, lane<kCopy>(src, dst, off + 0x20));
    x4 = fold(x4, k1k2, lane<kCopy>(src, dst, off + 0x30));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; off < n; off += 16) x1 = fold(x1, k3k4, lane<kCopy>(src, dst, off));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

/// Bytes the folding kernel takes from an `n`-byte range: it reads whole
/// 16-byte lanes and needs four of them, so the multiple of 16 at or above
/// 64, else nothing.
constexpr std::size_t fold_bytes(std::size_t n) noexcept {
  return n >= 64 ? n & ~std::size_t{15} : 0;
}

bool cpu_has_pclmul() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

namespace detail {

bool crc32_pclmul_supported() noexcept {
#ifdef ESP_CRC32_X86
  static const bool has = cpu_has_pclmul();
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed) noexcept {
  return ~slice16(~seed, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32_pclmul(const void* data, std::size_t size,
                           std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#ifdef ESP_CRC32_X86
  const std::size_t bulk = fold_bytes(size);
  if (bulk > 0) c = fold_pclmul<false>(c, p, nullptr, bulk);
  p += bulk;
  size -= bulk;
#endif
  return ~slice16(c, p, size);
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  return detail::crc32_pclmul_supported()
             ? detail::crc32_pclmul(data, size, seed)
             : detail::crc32_portable(data, size, seed);
}

std::uint32_t crc32_copy(void* dst, const void* src, std::size_t size,
                         std::uint32_t seed) noexcept {
  const auto* s = static_cast<const unsigned char*>(src);
  auto* d = static_cast<unsigned char*>(dst);
  std::uint32_t c = ~seed;
#ifdef ESP_CRC32_X86
  if (const std::size_t bulk = fold_bytes(size);
      bulk > 0 && detail::crc32_pclmul_supported()) {
    c = fold_pclmul<true>(c, s, d, bulk);
    s += bulk;
    d += bulk;
    size -= bulk;
  }
#endif
  if (size > 0) std::memcpy(d, s, size);
  return ~slice16(c, s, size);
}

}  // namespace esp
