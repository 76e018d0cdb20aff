#include "common/string_util.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rrr {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoSeparatorYieldsWhole) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "yy", "zzz"};
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, StripsAllWhitespaceKinds) {
  EXPECT_EQ(Trim("  a b \t\r\n"), "a b");
  EXPECT_EQ(Trim("\t\n "), "");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim(""), "");
}

TEST(ParseDoubleTest, ParsesPlainAndScientific) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -0.001);
  EXPECT_DOUBLE_EQ(ParseDouble("  42 ").value(), 42.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("3.2x").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("   ").ok());
  EXPECT_FALSE(ParseDouble("1.2 3.4").ok());
}

// The strtod-only parse ParseDouble must match: copy the trimmed field,
// strtod it, demand full consumption.
Result<double> StrtodReference(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: '" + buf + "'");
  }
  return v;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ExpectSameAsStrtod(const std::string& field) {
  const Result<double> got = ParseDouble(field);
  const Result<double> want = StrtodReference(field);
  ASSERT_EQ(got.ok(), want.ok()) << "field '" << field << "'";
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(Bits(*got), Bits(*want))
      << "field '" << field << "' parsed " << *got << ", strtod "
      << *want;
}

TEST(ParseDoubleTest, EdgeCasesMatchStrtodBitForBit) {
  const std::vector<std::string> edges = {
      // Subnormal and normal boundaries, rounding ties, long mantissas.
      "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "2.2250738585072009e-308",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "9007199254740993", "9007199254740995",
      "0.1000000000000000055511151231257827021181583404541015625",
      "123456789012345678901234567890", "0001.5", "1E5", "1e05", ".5",
      "5.", "-.5",
      // Out of range: strtod saturates to inf or flushes to 0.
      "1e400", "-1e400", "1e-400", "-1e-400",
      // Signed zeros, non-finite spellings, NaN payloads.
      "0", "-0", "-0.0", "0e10", "nan", "-nan", "NaN", "nan(123)",
      "nan(0x7)", "inf", "-inf", "INF", "Infinity", "-infinity", "infinit",
      // Forms only strtod accepts.
      "+1.5", "+0", "+inf", "+nan", "0x1p3", "0X1P-3", "-0x1.8p1", "0x",
      "0x1g",
      // Garbage and partial numbers.
      "1e", "1e+", "e5", ".", "-", "+", "--1", "1.2.3", "1,5", "1_000",
      "1 2", "abc", "", "   ", std::string("1\0", 2), std::string("\0", 1),
      // Whitespace: Trim strips ' ', \t, \r, \n; strtod alone skips
      // \v and \f at the front.
      " 42 ", "\t-3.5\r\n", "\v1", "\f-2", "1\v", "1\f"};
  for (const std::string& field : edges) ExpectSameAsStrtod(field);
}

TEST(ParseDoubleTest, RandomPrintfOutputsMatchStrtodBitForBit) {
  // Random bit patterns (every exponent, subnormals, inf and NaN) and
  // scaled integers, printed in the formats CSV producers emit.
  std::mt19937_64 rng(20191020);
  const char* const formats[] = {"%.17g", "%.6g", "%g",
                                 "%.3e",  "%.0f", "%a"};
  const char* const pads[][2] = {{"", ""}, {" ", "\t"}, {"\t ", "\r\n"}};
  for (int i = 0; i < 6000; ++i) {
    const uint64_t raw = rng();
    const double value =
        i % 2 == 0 ? FromBits(raw)
                   : static_cast<double>(static_cast<int64_t>(raw >> 20)) *
                         std::pow(10.0, static_cast<int>(raw % 41) - 20);
    for (const char* format : formats) {
      const std::string printed = StrFormat(format, value);
      const auto* pad = pads[static_cast<size_t>(i) % 3];
      ExpectSameAsStrtod(pad[0] + printed + pad[1]);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, HandlesLongOutput) {
  const std::string long_str(500, 'a');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 500u);
}

}  // namespace
}  // namespace rrr
