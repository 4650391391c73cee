/// \file test_common.cpp
/// \brief Foundation utilities: hashing, PRNG, buffers, units, tables,
/// artifact writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/buffer.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/io_writers.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace esp {
namespace {

TEST(Hash, StableAndDistinct) {
  EXPECT_EQ(fnv1a("mpi_events"), fnv1a("mpi_events"));
  EXPECT_NE(fnv1a("mpi_events"), fnv1a("mpi_eventS"));
  EXPECT_NE(fnv1a(""), 0u);
  // Multi-level ids: same type name, different level -> different id.
  EXPECT_NE(hash_combine(fnv1a("app1"), fnv1a("t")),
            hash_combine(fnv1a("app2"), fnv1a("t")));
}

/// Oracle for the CRC-32 tests: the IEEE CRC-32 one byte, one bit at a
/// time, sharing no table or code with `esp::crc32`.
std::uint32_t crc32_reference(const unsigned char* p, std::size_t n,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::vector<unsigned char> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.next());
  return v;
}

TEST(Hash, Crc32StandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
}

TEST(Hash, Crc32OfEmptyRangeIsTheSeed) {
  const unsigned char byte = 0x5a;
  for (std::uint32_t s : {0u, 1u, 0xCBF43926u, 0xffffffffu})
    EXPECT_EQ(crc32(&byte, 0, s), s);
}

TEST(Hash, Crc32ChainsAtEverySplitPoint) {
  const auto buf = seeded_bytes(100, 11);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split)
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split,
                    crc32(buf.data(), split)),
              whole)
        << "split " << split;
}

/// Lengths 0-300 reach the folding kernel's 64-byte entry, its 64- and
/// 16-byte folds and every tail length; start offsets 0-15 cover every
/// alignment of the loads. Each kernel runs on its own: the dispatched
/// `crc32`, the portable and PCLMUL kernels called directly, and
/// `crc32_copy`, whose destination must be an exact copy with the bytes
/// after it untouched.
TEST(Hash, Crc32MatchesBytewiseReferenceAtEveryOffsetAndLength) {
  constexpr std::size_t kMaxLen = 300;
  constexpr unsigned char kGuard = 0xa5;
  const auto buf = seeded_bytes(16 + kMaxLen, 12);
  const auto big = seeded_bytes((64 << 10) + 8, 13);
  std::vector<unsigned char> dst(big.size() + 16);
  const auto check = [&](const char* name, const auto& kernel) {
    for (std::size_t off = 0; off < 16; ++off)
      for (std::size_t len = 0; len <= kMaxLen; ++len)
        for (std::uint32_t s : {0u, 0x9e3779b9u})
          ASSERT_EQ(kernel(buf.data() + off, len, s),
                    crc32_reference(buf.data() + off, len, s))
              << name << " offset " << off << " length " << len << " seed "
              << s;
    // One stream-block-sized range, unaligned, with a ragged tail.
    ASSERT_EQ(kernel(big.data() + 1, big.size() - 1, 0),
              crc32_reference(big.data() + 1, big.size() - 1))
        << name;
  };
  const auto copy = [&](const void* src, std::size_t n, std::uint32_t s) {
    std::fill(dst.begin(), dst.end(), kGuard);
    const std::uint32_t c = crc32_copy(dst.data(), src, n, s);
    const auto* p = static_cast<const unsigned char*>(src);
    const bool copied =
        std::equal(p, p + n, dst.begin()) &&
        std::all_of(dst.begin() + static_cast<std::ptrdiff_t>(n), dst.end(),
                    [&](unsigned char b) { return b == kGuard; });
    // A bad copy returns a value that can never match the reference.
    return copied ? c : ~crc32_reference(p, n, s);
  };
  ASSERT_NO_FATAL_FAILURE(check("crc32", crc32));
  ASSERT_NO_FATAL_FAILURE(check("portable", detail::crc32_portable));
  ASSERT_NO_FATAL_FAILURE(check("crc32_copy", copy));
  if (!detail::crc32_pclmul_supported())
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1: PCLMUL kernel not checked";
  check("pclmul", detail::crc32_pclmul);
}

TEST(Hash, Crc32DetectsEverySingleBitFlip) {
  auto buf = seeded_bytes(4096, 14);
  const std::uint32_t clean = crc32(buf.data(), buf.size());
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(crc32(buf.data(), buf.size()), clean) << "bit " << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(crc32(buf.data(), buf.size()), clean);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng r(7);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 3.0);
  }
}

TEST(Buffer, WritableIffUniqueOwner) {
  auto b = Buffer::copy_of("abc", 3);
  EXPECT_TRUE(writable(b));
  auto alias = b;
  EXPECT_FALSE(writable(b));
  alias.reset();
  EXPECT_TRUE(writable(b));
  BufferRef null;
  EXPECT_FALSE(writable(null));
}

TEST(Buffer, TypedViews) {
  std::uint32_t vals[3] = {1, 2, 3};
  auto b = Buffer::copy_of(vals, sizeof vals);
  auto span = b->as<std::uint32_t>();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[2], 3u);
  b->as_mutable<std::uint32_t>()[0] = 9;
  EXPECT_EQ(b->as<std::uint32_t>()[0], 9u);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(1.5e9), "1.50 GB");
  EXPECT_EQ(format_bandwidth(98.5e9), "98.50 GB/s");
  EXPECT_EQ(format_time(1.5e-6), "1.50 us");
  EXPECT_EQ(format_time(0.25), "250.00 ms");
  EXPECT_EQ(format_time(2.0), "2.000 s");
}

TEST(Table, AlignsAndCounts) {
  Table t({"a", "bb"});
  t.row("x", 12);
  t.row("longer", 3.5);
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("3.500"), std::string::npos);
}

TEST(Matrix, SumAndMax) {
  Matrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(1, 2) = 5;
  EXPECT_DOUBLE_EQ(m.sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.max(), 5.0);
}

TEST(IoWriters, CsvRoundtrip) {
  const std::string path = "test_common_matrix.csv";
  Matrix m(2, 2);
  m.at(0, 1) = 2.5;
  ASSERT_TRUE(write_csv(path, m));
  std::ifstream in(path);
  std::string l1, l2;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "0,2.5");
  EXPECT_EQ(l2, "0,0");
  std::filesystem::remove(path);
}

TEST(IoWriters, PpmHeaderAndSize) {
  const std::string path = "test_common.ppm";
  Matrix m(3, 4);
  m.at(1, 1) = 1.0;
  ASSERT_TRUE(write_ppm_heatmap(path, m, true, 2));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w = 0, h = 0, depth = 0;
  in >> magic >> w >> h >> depth;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 8);
  EXPECT_EQ(h, 6);
  EXPECT_EQ(depth, 255);
  in.get();  // single whitespace after header
  std::vector<char> px(static_cast<std::size_t>(w) * h * 3);
  in.read(px.data(), static_cast<std::streamsize>(px.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(px.size()));
  std::filesystem::remove(path);
}

TEST(IoWriters, DotGraphContainsEdges) {
  const std::string path = "test_common.dot";
  Matrix m(3, 3);
  m.at(0, 1) = 4.0;
  m.at(2, 0) = 1.0;
  ASSERT_TRUE(write_dot_graph(path, m, "g"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1"), std::string::npos);
  EXPECT_NE(dot.find("2 -> 0"), std::string::npos);
  EXPECT_EQ(dot.find("1 -> 2"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Env, IntFlagAndString) {
  setenv("ESP_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("ESP_TEST_INT", 0), 42);
  EXPECT_EQ(env_int("ESP_TEST_MISSING", 7), 7);
  setenv("ESP_TEST_FLAG", "yes", 1);
  EXPECT_TRUE(env_flag("ESP_TEST_FLAG"));
  setenv("ESP_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("ESP_TEST_FLAG"));
  EXPECT_EQ(env_str("ESP_TEST_MISSING", "d"), "d");
  unsetenv("ESP_TEST_INT");
  unsetenv("ESP_TEST_FLAG");
}

/// Malformed knobs must fall back to the default (with a one-shot stderr
/// warning), never half-parse: "8x" is not 8 and "1e3" is not 1.
TEST(Env, MalformedIntegerFallsBackToDefault) {
  setenv("ESP_TEST_BAD_INT", "8x", 1);
  EXPECT_EQ(env_int("ESP_TEST_BAD_INT", 5), 5);
  setenv("ESP_TEST_BAD_INT", "1e3", 1);
  EXPECT_EQ(env_int("ESP_TEST_BAD_INT", 5), 5);
  setenv("ESP_TEST_BAD_INT", "12 34", 1);
  EXPECT_EQ(env_int("ESP_TEST_BAD_INT", 5), 5);
  setenv("ESP_TEST_BAD_INT", "abc", 1);
  EXPECT_EQ(env_int("ESP_TEST_BAD_INT", -2), -2);
  // Out of int64 range is a misconfiguration, not a saturated value.
  setenv("ESP_TEST_BAD_INT", "99999999999999999999999", 1);
  EXPECT_EQ(env_int("ESP_TEST_BAD_INT", 5), 5);
  unsetenv("ESP_TEST_BAD_INT");
}

TEST(Env, IntAcceptsSignsAndTrailingWhitespace) {
  setenv("ESP_TEST_OK_INT", "-17", 1);
  EXPECT_EQ(env_int("ESP_TEST_OK_INT", 0), -17);
  setenv("ESP_TEST_OK_INT", "+9", 1);
  EXPECT_EQ(env_int("ESP_TEST_OK_INT", 0), 9);
  // Trailing whitespace is a quoting artifact, not a malformed knob.
  setenv("ESP_TEST_OK_INT", "33 ", 1);
  EXPECT_EQ(env_int("ESP_TEST_OK_INT", 0), 33);
  setenv("ESP_TEST_OK_INT", "0", 1);
  EXPECT_EQ(env_int("ESP_TEST_OK_INT", 4), 0);
  unsetenv("ESP_TEST_OK_INT");
}

TEST(Env, FlagRecognizesTokensCaseInsensitively) {
  for (const char* yes : {"1", "true", "YES", "On", "TRUE"}) {
    setenv("ESP_TEST_TOK", yes, 1);
    EXPECT_TRUE(env_flag("ESP_TEST_TOK", false)) << yes;
  }
  for (const char* no : {"0", "false", "NO", "Off", "FALSE"}) {
    setenv("ESP_TEST_TOK", no, 1);
    EXPECT_FALSE(env_flag("ESP_TEST_TOK", true)) << no;
  }
  // Unknown tokens fall back to the caller's default, either way.
  setenv("ESP_TEST_TOK", "maybe", 1);
  EXPECT_TRUE(env_flag("ESP_TEST_TOK", true));
  EXPECT_FALSE(env_flag("ESP_TEST_TOK", false));
  unsetenv("ESP_TEST_TOK");
}

}  // namespace
}  // namespace esp
