#pragma once
/// \file hash.hpp
/// \brief Small, dependency-free hashing utilities used across esperf.
///
/// The blackboard identifies data-entry types by a 64-bit hash of
/// "<level>:<type-name>" (see the multi-level blackboard in the paper,
/// Section III-B), so the hash must be stable across runs and platforms.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace esp {

/// FNV-1a 64-bit hash; stable, endian-independent for byte input.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Combine two hashes (boost::hash_combine-style, 64-bit constants).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
}

/// Mix a 64-bit integer (splitmix64 finalizer).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {
/// CRC-32 (IEEE 802.3, reflected) slice-by-16 tables, generated at compile
/// time. `t[0]` is the classic bytewise table; `t[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, so sixteen lookups
/// fold sixteen input bytes at once.
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
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load from a possibly unaligned byte pointer
/// (compilers fold it into one load on little-endian targets).
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}
}  // namespace detail

/// CRC-32 over a byte range; `seed` chains partial computations (pass the
/// previous return value to continue). Stream blocks are checksummed with
/// this so in-flight corruption is detected at the read endpoint.
/// Slice-by-16: the result is bit-identical to the bytewise IEEE CRC-32
/// (zlib's `crc32`); the tail of fewer than 16 bytes runs bytewise.
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrc32Tables.t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 16; size -= 16, p += 16) {
    const std::uint32_t w0 = detail::load_le32(p) ^ c;
    const std::uint32_t w1 = detail::load_le32(p + 4);
    const std::uint32_t w2 = detail::load_le32(p + 8);
    const std::uint32_t w3 = detail::load_le32(p + 12);
    c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
        t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
        t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
        t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
        t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
  }
  for (; size > 0; --size, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace esp
