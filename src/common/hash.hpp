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

/// CRC-32 over a byte range; `seed` chains partial computations (pass the
/// previous return value to continue). Stream blocks are checksummed with
/// this so in-flight corruption is detected at the read endpoint. The result
/// is bit-identical to the bytewise IEEE CRC-32 (zlib's `crc32`) whichever
/// kernel runs: on x86-64 CPUs with PCLMULQDQ and SSE4.1 a carry-less-
/// multiply folding kernel takes each range's multiple of 16 bytes from 64
/// bytes up; slice-by-16 runs shorter ranges, the tails and other CPUs.
/// The kernel is picked once per process from CPUID (`common/crc32.cpp`).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// Copy `size` bytes from `src` to `dst` (no overlap) and return
/// `crc32(src, size, seed)`. The folding kernel stores each 16-byte lane it
/// loads, so a block is read once for both; elsewhere this is `memcpy` plus
/// `crc32`.
std::uint32_t crc32_copy(void* dst, const void* src, std::size_t size,
                         std::uint32_t seed = 0) noexcept;

namespace detail {
/// The two kernels behind `crc32`, exposed so each can be tested on its
/// own. `crc32_pclmul` may run only where `crc32_pclmul_supported()`.
std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed) noexcept;
std::uint32_t crc32_pclmul(const void* data, std::size_t size,
                           std::uint32_t seed) noexcept;
bool crc32_pclmul_supported() noexcept;
}  // namespace detail

}  // namespace esp
