// Unit tests: support utilities — table printer, chart renderer, string
// formatting, the number readers, deterministic RNG, JSON round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/autotune/tuning_file.h"
#include "src/support/chart.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/table.h"

namespace incflat {
namespace {

TEST(Table, AlignsColumnsToWidestCell) {
  Table t({"a", "long-header"});
  t.row({"xxxx", "y"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  // Both rows must have the second column starting at the same offset.
  const size_t h = s.find("long-header");
  const size_t v = s.find("y");
  ASSERT_NE(h, std::string::npos);
  ASSERT_NE(v, std::string::npos);
  EXPECT_EQ(h % (s.find('\n') + 1), 6u);  // "xxxx" + 2 spaces
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.row({"1"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

TEST(Chart, RendersAllSeriesOnLogAxis) {
  std::ostringstream os;
  print_log_chart(os,
                  {{"up", 'u', {1, 10, 100, 1000}},
                   {"down", 'd', {1000, 100, 10, 1}}},
                  0, 8);
  const std::string s = os.str();
  EXPECT_NE(s.find("u=up"), std::string::npos);
  EXPECT_NE(s.find("d=down"), std::string::npos);
  // Both glyphs appear at least four times (one per x, plus legend text).
  EXPECT_GE(std::count(s.begin(), s.end(), 'u'), 4);
  EXPECT_GE(std::count(s.begin(), s.end(), 'd'), 4);
}

TEST(Chart, HandlesEmptyAndNonPositive) {
  std::ostringstream os;
  print_log_chart(os, {});
  EXPECT_TRUE(os.str().empty());
  print_log_chart(os, {{"s", 's', {0, -1, 5}}}, 0, 4);
  EXPECT_FALSE(os.str().empty());  // the positive point still renders
}

TEST(Str, Formatting) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_us(12.34), "12.3us");
  EXPECT_EQ(fmt_us(12345.0), "12.35ms");
  EXPECT_EQ(fmt_us(3.2e6), "3.200s");
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_EQ(join(std::vector<std::string>{"a", "b"}, ","), "a,b");
}

// ---------------------------------------------------------------------------
// The number readers (src/support/str.h): every number from a flag, an
// environment variable, a spec, a file or a request goes through them.
// ---------------------------------------------------------------------------

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(Reader, RefusesNonNumbersAndTrailingBytes) {
  for (const char* bad :
       {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "", " ", "12abc",
        "1.5x", "7 ", "--1", "+-1", "1e999", "0x"}) {
    EXPECT_FALSE(parse_finite(bad)) << bad;
    EXPECT_FALSE(parse_int(bad, kMin, kMax)) << bad;
    EXPECT_THROW(read_real("x", bad, -1e300, 1e300), IoError) << bad;
    EXPECT_THROW(read_int("x", bad, kMin, kMax), IoError) << bad;
  }
  // A fraction where an integer is wanted is refused, not truncated; an
  // integral spelling in another form is the integer it spells.
  for (const char* frac : {"2.5", "8080.9", "-0.5", "1e-3"}) {
    EXPECT_FALSE(parse_int(frac, kMin, kMax)) << frac;
  }
  EXPECT_EQ(parse_int("1e3", 0, 65535), 1000);
  EXPECT_EQ(parse_int("8.0", 0, 10), 8);
  EXPECT_EQ(parse_int("+3", 0, 10), 3);
  EXPECT_EQ(parse_finite("0.25"), 0.25);
  EXPECT_EQ(parse_finite("-1e-3"), -1e-3);
  // An underflow is the zero it rounds to, as in Json::parse.
  EXPECT_EQ(parse_finite("1e-400"), 0.0);
  EXPECT_EQ(read_real("--drain-ms", "1e-400", 0, 1), 0.0);
}

TEST(Reader, BoundsAreInclusiveAndOnePastIsRefused) {
  EXPECT_EQ(parse_int("0", 0, 1024), 0);
  EXPECT_EQ(parse_int("1024", 0, 1024), 1024);
  EXPECT_FALSE(parse_int("-1", 0, 1024));
  EXPECT_FALSE(parse_int("1025", 0, 1024));
  EXPECT_EQ(parse_int("1", 1, 2147483647), 1);
  EXPECT_EQ(parse_int("2147483647", 1, 2147483647), 2147483647);
  EXPECT_FALSE(parse_int("0", 1, 2147483647));
  EXPECT_FALSE(parse_int("2147483648", 1, 2147483647));
  EXPECT_EQ(read_real("x", "0", 0, 1), 0.0);
  EXPECT_EQ(read_real("x", "1", 0, 1), 1.0);
  EXPECT_THROW(read_real("x", "-1e-9", 0, 1), IoError);
  EXPECT_THROW(read_real("x", "1.000001", 0, 1), IoError);
  // The JSON form: the same bounds, checked before converting.
  EXPECT_EQ(exact_int(1.0, 1, 2147483647), 1);
  EXPECT_EQ(exact_int(2147483647.0, 1, 2147483647), 2147483647);
  EXPECT_FALSE(exact_int(0.0, 1, 2147483647));
  EXPECT_FALSE(exact_int(2147483648.0, 1, 2147483647));
  EXPECT_FALSE(exact_int(2.5, 1, 10));
  EXPECT_FALSE(exact_int(std::numeric_limits<double>::quiet_NaN(), kMin, kMax));
  EXPECT_FALSE(exact_int(std::numeric_limits<double>::infinity(), kMin, kMax));
  EXPECT_EQ(exact_int(-0x1p63, kMin, kMax), kMin);
  EXPECT_FALSE(exact_int(0x1p63, kMin, kMax));  // 2^63 is just outside
  // The message names what was read, the range and the text.
  try {
    read_int("--workers", "3x", 0, 1024);
    ADD_FAILURE() << "3x was accepted";
  } catch (const IoError& e) {
    EXPECT_STREQ(e.what(), "--workers: want an integer in [0, 1024], got '3x'");
  }
}

TEST(Reader, Int64ExtremesReadExactly) {
  EXPECT_EQ(parse_int("-9223372036854775808", kMin, kMax), kMin);
  EXPECT_EQ(parse_int("9223372036854775807", kMin, kMax), kMax);
  // 2^62 - 1 is not a double: a reader rounding through double reads 2^62.
  EXPECT_EQ(parse_int("4611686018427387903", kMin, kMax),
            (int64_t{1} << 62) - 1);
  EXPECT_FALSE(parse_int("9223372036854775808", kMin, kMax));
  EXPECT_FALSE(parse_int("-9223372036854775809", kMin, kMax));
  EXPECT_FALSE(parse_int("99999999999999999999999", kMin, kMax));
}

TEST(Reader, SeedsTakeStrtoullFormsWithoutSign) {
  EXPECT_EQ(parse_uint("7"), 7u);
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("0xfa0175eed"), 0xfa0175eedULL);
  EXPECT_EQ(parse_uint("0XFF"), 255u);
  EXPECT_EQ(parse_uint("017"), 15u);
  EXPECT_EQ(parse_uint("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
  for (const char* bad : {"-1", "+7", "12abc", "18446744073709551616",
                          "0x10000000000000000", "", "0x", "08", "1e3",
                          "7.0"}) {
    EXPECT_FALSE(parse_uint(bad)) << bad;
    EXPECT_THROW(read_seed("INCFLAT_FAULT_SEED", bad), IoError) << bad;
  }
  // Base 16 is bare hex, as the tuning journal writes it.
  EXPECT_EQ(parse_uint("fa0175eed", 16), 0xfa0175eedULL);
  EXPECT_FALSE(parse_uint("0xff", 16));
  EXPECT_FALSE(parse_uint("10000000000000000", 16));
}

TEST(Reader, SplitSpecSkipsEmptyItemsAndNamesTheBadOne) {
  const std::vector<SpecItem> items =
      split_spec(",a=1,,b@2,c=x=y,", "faults", "=@");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].key, "a");
  EXPECT_EQ(items[0].sep, '=');
  EXPECT_EQ(items[0].value, "1");
  EXPECT_EQ(items[1].key, "b");
  EXPECT_EQ(items[1].sep, '@');
  EXPECT_EQ(items[1].value, "2");
  EXPECT_EQ(items[2].value, "x=y");  // split at the first separator only
  EXPECT_TRUE(split_spec("", "run-policy").empty());
  try {
    split_spec("a=1,b", "run-policy");
    ADD_FAILURE() << "an item without '=' was accepted";
  } catch (const IoError& e) {
    EXPECT_STREQ(e.what(), "run-policy: expected key=value, got 'b'");
  }
}

TEST(Reader, TuningFileRoundTripsTwoToTheSixtySecondMinusOne) {
  ThresholdEnv env;
  env.default_threshold = (int64_t{1} << 62) - 1;
  env.values["suff_outer_par_0"] = (int64_t{1} << 62) - 1;
  env.values["suff_intra_par_1"] = kMin;
  const ThresholdEnv back = tuning_from_string(tuning_to_string(env));
  EXPECT_EQ(back.default_threshold, env.default_threshold);
  EXPECT_EQ(back.values, env.values);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = r.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
    const double d = r.uniform();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, FlipIsRoughlyFair) {
  Rng r(123);
  int heads = 0;
  for (int i = 0; i < 2000; ++i) heads += r.flip() ? 1 : 0;
  EXPECT_GT(heads, 850);
  EXPECT_LT(heads, 1150);
}

TEST(Rng, FullInt64RangeDoesNotDivideByZero) {
  // span == 2^64 used to compute `next() % 0`.  Any draw is in range by
  // construction; the point is that it terminates without UB.
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    (void)r.uniform_int(std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max());
  }
}

TEST(Rng, ExtremeBoundsStayInRange) {
  Rng r(11);
  const int64_t lo = std::numeric_limits<int64_t>::min();
  for (int i = 0; i < 200; ++i) {
    const int64_t v = r.uniform_int(lo, lo + 9);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, lo + 9);
  }
  const int64_t hi = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 200; ++i) {
    const int64_t v = r.uniform_int(hi - 9, hi);
    EXPECT_GE(v, hi - 9);
    EXPECT_LE(v, hi);
  }
}

TEST(Rng, SmallSpanHitsEveryValue) {
  // Rejection sampling must still cover the whole interval.
  Rng r(3);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) seen[r.uniform_int(10, 14) - 10] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(Json, EscapesControlCharactersAndRoundTrips) {
  const std::string nasty = "line\nfeed\ttab\rret\bback\fform\x01unit\"q\\s";
  const std::string out = Json(nasty).str();
  // The serialized form must not contain raw control bytes.
  for (unsigned char c : out) EXPECT_GE(c, 0x20u) << "raw control char in: "
                                                  << out;
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\r"), std::string::npos);
  EXPECT_NE(out.find("\\b"), std::string::npos);
  EXPECT_NE(out.find("\\f"), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json::parse(out).as_string(), nasty);
}

TEST(Json, DoubleSerializationRoundTrips) {
  for (double d : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, 123456789.123456789,
                   -0.0625, 1e15 + 1, 12345.0, 0.0}) {
    const std::string out = Json(d).str();
    EXPECT_EQ(Json::parse(out).as_double(), d) << "lossy via " << out;
  }
  // Integral doubles keep printing without an exponent or fraction.
  EXPECT_EQ(Json(42.0).str(), "42");
  // Non-finite values are not valid JSON numbers; we emit null.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).str(), "null");
}

TEST(Json, ParserHandlesEscapesAndStructure) {
  const Json doc = Json::parse(
      R"({"a": [1, 2.5, true, false, null], "s": "x\u0041\n\u00e9\ud83d\ude00"})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("a").size(), 5u);
  EXPECT_EQ(doc.get("a").at(1).as_double(), 2.5);
  EXPECT_TRUE(doc.get("a").at(2).as_bool());
  EXPECT_TRUE(doc.get("a").at(4).is_null());
  // \u0041 = 'A', \u00e9 = e-acute (2-byte UTF-8), the surrogate pair
  // \ud83d\ude00 decodes to U+1F600 (4-byte UTF-8).
  EXPECT_EQ(doc.get("s").as_string(), "xA\n\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} junk"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, NumberGrammarFuzzEdges) {
  // Inputs a serving daemon actually receives over the wire: strict RFC 8259
  // grammar, so every one of these near-misses must be rejected rather than
  // silently truncated or misread.
  EXPECT_THROW(Json::parse("+1"), std::runtime_error);     // leading '+'
  EXPECT_THROW(Json::parse("-"), std::runtime_error);      // lone minus
  EXPECT_THROW(Json::parse("--1"), std::runtime_error);
  EXPECT_THROW(Json::parse("01"), std::runtime_error);     // leading zero
  EXPECT_THROW(Json::parse("-01"), std::runtime_error);
  EXPECT_THROW(Json::parse("1."), std::runtime_error);     // empty fraction
  EXPECT_THROW(Json::parse(".5"), std::runtime_error);     // empty integer
  EXPECT_THROW(Json::parse("-.5"), std::runtime_error);
  EXPECT_THROW(Json::parse("1e"), std::runtime_error);     // empty exponent
  EXPECT_THROW(Json::parse("1e+"), std::runtime_error);
  EXPECT_THROW(Json::parse("1e999"), std::runtime_error);  // overflows double
  EXPECT_THROW(Json::parse("[1, +2]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": 007}"), std::runtime_error);
  // ...while everything the grammar does admit still parses.
  EXPECT_EQ(Json::parse("-0").as_double(), 0.0);
  EXPECT_EQ(Json::parse("0.5").as_double(), 0.5);
  EXPECT_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("-1.25e-2").as_double(), -0.0125);
  EXPECT_EQ(Json::parse("1E+2").as_double(), 100.0);
  // Underflow is not an error: subnormal-or-zero is the correct reading.
  EXPECT_NEAR(Json::parse("1e-999").as_double(), 0.0, 1e-300);
}

TEST(Json, NumberRoundTripsExtremeDoubles) {
  for (const double d : {1.7976931348623157e308, 4.9e-324, -2.2250738585072014e-308}) {
    EXPECT_EQ(Json::parse(Json(d).str()).as_double(), d);
  }
}

TEST(Json, NestedDocumentRoundTrips) {
  Json j = Json::object();
  j.set("name", "bench\t1")
      .set("ok", true)
      .set("t", 0.1 + 0.2);
  Json arr = Json::array();
  arr.push(Json(1.0)).push(Json("two")).push(Json());
  j.set("items", std::move(arr));
  const Json back = Json::parse(j.str());
  EXPECT_EQ(back.get("name").as_string(), "bench\t1");
  EXPECT_TRUE(back.get("ok").as_bool());
  EXPECT_EQ(back.get("t").as_double(), 0.1 + 0.2);
  EXPECT_EQ(back.get("items").size(), 3u);
  EXPECT_TRUE(back.get("items").at(2).is_null());
  // Serializing the reparsed document is a fixed point.
  EXPECT_EQ(back.str(), j.str());
}

}  // namespace
}  // namespace incflat
