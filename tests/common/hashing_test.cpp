#include "common/hashing.hpp"

#include <gtest/gtest.h>

#include <array>
#include <unordered_set>

namespace dart {
namespace {

TEST(Mix64, IsDeterministicAndNontrivial) {
  EXPECT_EQ(mix64(12345), mix64(12345));
  EXPECT_NE(mix64(12345), mix64(12346));
  EXPECT_NE(mix64(0), 0ULL);
}

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t base = mix64(0xDEADBEEFCAFEF00DULL);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t flipped =
        mix64(0xDEADBEEFCAFEF00DULL ^ (1ULL << bit));
    const int popcount = __builtin_popcountll(base ^ flipped);
    EXPECT_GT(popcount, 10) << "weak avalanche at bit " << bit;
    EXPECT_LT(popcount, 54) << "weak avalanche at bit " << bit;
  }
}

TEST(Crc32, MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::array<std::uint8_t, 9> data = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(data)), 0xCBF43926U);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32({}), 0U);
}

TEST(Crc32U32, ConsistentWithBytewiseCrc) {
  const std::uint32_t word = 0x01020304U;
  const std::array<std::uint8_t, 4> bytes = {0x04, 0x03, 0x02, 0x01};  // LE
  EXPECT_EQ(crc32_u32(word), crc32(std::span<const std::uint8_t>(bytes)));
}

TEST(HashFamily, StagesAreIndependent) {
  const HashFamily family(99);
  const std::uint64_t key = 0xABCDEF12345ULL;
  std::unordered_set<std::uint64_t> values;
  for (std::uint32_t stage = 0; stage < 8; ++stage) {
    values.insert(family(key, stage));
  }
  EXPECT_EQ(values.size(), 8U);  // all distinct for this key
}

TEST(HashFamily, SeedChangesMapping) {
  const HashFamily a(1);
  const HashFamily b(2);
  EXPECT_NE(a(42, 0), b(42, 0));
}

TEST(HashFamily, StageIndexDistributionIsRoughlyUniform) {
  const HashFamily family(7);
  constexpr std::size_t buckets = 64;
  std::array<int, buckets> counts{};
  const int keys = 64000;
  for (int i = 0; i < keys; ++i) {
    ++counts[family(static_cast<std::uint64_t>(i), 1) % buckets];
  }
  const int expected = keys / buckets;
  for (std::size_t i = 0; i < buckets; ++i) {
    EXPECT_GT(counts[i], expected / 2) << "bucket " << i;
    EXPECT_LT(counts[i], expected * 2) << "bucket " << i;
  }
}

TEST(HashFamily, CachedSaltsMatchTheFormula) {
  // The family caches the first kCachedStages salts; every stage, cached
  // or not, must hash exactly as the uncached formula does, since table
  // placement (and so every report and checkpoint) depends on it.
  const auto formula = [](std::uint64_t seed, std::uint64_t key,
                          std::uint32_t stage) {
    return mix64(key ^ mix64(seed + 0x632be59bd9b4e019ULL * (stage + 1)));
  };
  const std::uint64_t seeds[] = {0, 1, 0x5eed, 0xD1CE'F00D'0000'0001ULL,
                                 UINT64_MAX};
  const std::uint64_t keys[] = {0, 42, 0x0123456789abcdefULL, UINT64_MAX};
  for (const std::uint64_t seed : seeds) {
    const HashFamily family(seed);
    for (std::uint32_t stage = 0; stage < HashFamily::kCachedStages + 4;
         ++stage) {
      for (const std::uint64_t key : keys) {
        EXPECT_EQ(family(key, stage), formula(seed, key, stage))
            << "seed " << seed << " stage " << stage << " key " << key;
      }
    }
  }
}

TEST(HashFamily, GoldenValues) {
  // Pinned outputs, cached stages (0, 1, 8) and computed ones (9, 31): a
  // change here moves every table row.
  constexpr std::uint64_t kKey = 0x0123456789abcdefULL;
  EXPECT_EQ(HashFamily(0)(kKey, 0), 0x022e97fc2d54af87ULL);
  EXPECT_EQ(HashFamily(0)(kKey, 1), 0xa2888a53b0aaa362ULL);
  EXPECT_EQ(HashFamily(0)(kKey, 8), 0xda5cb4a592980be9ULL);
  EXPECT_EQ(HashFamily(0)(kKey, 9), 0x233a2b89d87dfbbcULL);
  EXPECT_EQ(HashFamily(0)(kKey, 31), 0x2c61fadc0cd2fd80ULL);
  EXPECT_EQ(HashFamily(1)(kKey, 0), 0xa7bf2ab41886c7e1ULL);
  EXPECT_EQ(HashFamily(1)(kKey, 1), 0x8ec7c94559f265eeULL);
  EXPECT_EQ(HashFamily(1)(kKey, 9), 0x7ec21a85e9b2c0c0ULL);
  EXPECT_EQ(HashFamily(0x5eed)(kKey, 0), 0x20a0983edd8eae7aULL);
  EXPECT_EQ(HashFamily(0x5eed)(kKey, 1), 0xcfa8ec9ebc79cdb3ULL);
  EXPECT_EQ(HashFamily(0x5eed)(kKey, 8), 0x3ae234a72d72ea25ULL);
  EXPECT_EQ(HashFamily(0x5eed)(kKey, 31), 0xd8413f79cf5340f4ULL);
}

}  // namespace
}  // namespace dart
