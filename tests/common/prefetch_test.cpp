#include "common/prefetch.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>

namespace dart {
namespace {

// The cache lines a row of `bytes` bytes at `offset` within a line touches,
// as line indices relative to the aligned base.
std::set<std::size_t> touched_lines(std::size_t offset, std::size_t bytes) {
  std::set<std::size_t> lines;
  for (std::size_t byte = offset; byte < offset + bytes; ++byte) {
    lines.insert(byte / kCacheLine);
  }
  return lines;
}

TEST(RowPrefetch, HintsExactlyTheLinesTheRowTouches) {
  // The real row sizes, RangeTracker::Entry (24 B) and PacketTracker::Slot
  // (40 B), and the largest row the helpers accept (one full line). Every
  // start offset within a line, against a line-aligned base.
  alignas(kCacheLine) static unsigned char buffer[3 * kCacheLine];
  const auto base = reinterpret_cast<std::uintptr_t>(buffer);
  constexpr std::size_t kRowSizes[] = {24, 40, kCacheLine};
  for (const std::size_t bytes : kRowSizes) {
    std::size_t crossing = 0;
    for (std::size_t offset = 0; offset < kCacheLine; ++offset) {
      std::set<std::size_t> hinted;
      std::size_t hints = 0;
      hint_row_lines(buffer + offset, bytes, [&](const void* addr) {
        const auto at = reinterpret_cast<std::uintptr_t>(addr);
        EXPECT_GE(at, base + offset);
        EXPECT_LT(at, base + offset + bytes);  // inside the row
        hinted.insert((at - base) / kCacheLine);
        ++hints;
      });
      const std::set<std::size_t> expected = touched_lines(offset, bytes);
      EXPECT_EQ(hinted, expected) << bytes << " B row at offset " << offset;
      EXPECT_EQ(hints, 2U);  // branch-free: a fitting row's line twice
      if (expected.size() == 2) ++crossing;
    }
    // A row crosses a boundary when it starts past offset 64 - bytes.
    EXPECT_EQ(crossing, bytes - 1) << bytes << " B row";
  }
}

}  // namespace
}  // namespace dart
