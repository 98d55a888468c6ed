#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/parse_number.hpp"

namespace dart {
namespace {

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.0, 0), "3");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatPercent, MultipliesByHundred) {
  EXPECT_EQ(format_percent(0.123, 1), "12.3%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(FormatCount, GroupsThousands) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(135780000), "135,780,000");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "23456"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 23456 |"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| only |"), std::string::npos);
}

TEST(ParseNumber, AcceptsWholeDecimalsUpToTheTypeMaximum) {
  std::uint16_t port = 7;
  EXPECT_TRUE(parse_number("65535", port));
  EXPECT_EQ(port, 65535);
  std::uint64_t big = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", big));
  EXPECT_EQ(big, UINT64_MAX);
  std::int64_t offset = 0;
  EXPECT_TRUE(parse_number("-9", offset));
  EXPECT_EQ(offset, -9);
}

TEST(ParseNumber, RejectsWhatStrtoullWouldSilentlyAccept) {
  std::uint16_t port = 7;
  EXPECT_FALSE(parse_number("70000", port));  // would wrap to 4464
  std::uint32_t shards = 3;
  EXPECT_FALSE(parse_number("abc", shards));  // would become 0
  EXPECT_FALSE(parse_number("", shards));
  EXPECT_FALSE(parse_number("12abc", shards));
  EXPECT_FALSE(parse_number(" 12", shards));
  EXPECT_FALSE(parse_number("+12", shards));
  std::uint64_t seed = 5;
  EXPECT_FALSE(parse_number("-1", seed));  // would wrap to UINT64_MAX
  EXPECT_FALSE(parse_number("18446744073709551616", seed));
  // A rejected value leaves the target untouched.
  EXPECT_EQ(port, 7);
  EXPECT_EQ(shards, 3U);
  EXPECT_EQ(seed, 5U);
}

TEST(ParseNonnegative, AcceptsFiniteNonNegativeDecimals) {
  double rate = -1.0;
  EXPECT_TRUE(parse_nonnegative("2.5", rate));
  EXPECT_EQ(rate, 2.5);
  EXPECT_TRUE(parse_nonnegative("0", rate));
  EXPECT_EQ(rate, 0.0);
  EXPECT_TRUE(parse_nonnegative("1e3", rate));
  EXPECT_EQ(rate, 1000.0);
  EXPECT_TRUE(parse_nonnegative(".5", rate));
  EXPECT_EQ(rate, 0.5);
}

TEST(ParseNonnegative, RejectsWhatStrtodWouldSilentlyAccept) {
  double rate = 7.0;
  EXPECT_FALSE(parse_nonnegative("abc", rate));  // strtod: 0, unpaced
  EXPECT_FALSE(parse_nonnegative("", rate));
  EXPECT_FALSE(parse_nonnegative("1.5x", rate));
  EXPECT_FALSE(parse_nonnegative(" 1.5", rate));
  EXPECT_FALSE(parse_nonnegative("+1.5", rate));
  EXPECT_FALSE(parse_nonnegative("-1", rate));
  EXPECT_FALSE(parse_nonnegative("-0", rate));
  EXPECT_FALSE(parse_nonnegative("nan", rate));
  EXPECT_FALSE(parse_nonnegative("NaN", rate));
  EXPECT_FALSE(parse_nonnegative("inf", rate));
  EXPECT_FALSE(parse_nonnegative("infinity", rate));
  EXPECT_FALSE(parse_nonnegative("1e999", rate));  // out of range
  EXPECT_FALSE(parse_nonnegative("0x10", rate));
  EXPECT_EQ(rate, 7.0);  // a rejected value leaves the target untouched
}

}  // namespace
}  // namespace dart
