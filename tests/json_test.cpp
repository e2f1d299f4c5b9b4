// Unit tests for the minimal JSON parser/serializer.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "common/json.h"

namespace nsflow {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::Parse("null").is_null());
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("3.25").AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("-17").AsDouble(), -17.0);
  EXPECT_DOUBLE_EQ(Json::Parse("6.02e23").AsDouble(), 6.02e23);
  EXPECT_EQ(Json::Parse("\"hello\"").AsString(), "hello");
}

TEST(JsonParseTest, EscapeSequences) {
  EXPECT_EQ(Json::Parse(R"("a\nb\t\"q\"\\")").AsString(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(Json::Parse(R"("é")").AsString(), "\xc3\xa9");  // é in UTF-8.
}

TEST(JsonParseTest, NestedStructures) {
  const Json doc = Json::Parse(R"({
    "workload": "NVSA",
    "loop_count": 2,
    "ops": [{"name": "conv1", "gemm": {"m": 64, "n": 147, "k": 102400}}]
  })");
  EXPECT_EQ(doc.At("workload").AsString(), "NVSA");
  EXPECT_EQ(doc.At("loop_count").AsInt(), 2);
  EXPECT_EQ(doc.At("ops").size(), 1u);
  EXPECT_EQ(doc.At("ops").At(0).At("gemm").At("k").AsInt(), 102400);
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_EQ(Json::Parse("[]").size(), 0u);
  EXPECT_EQ(Json::Parse("{}").size(), 0u);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::Parse(""), ParseError);
  EXPECT_THROW(Json::Parse("{"), ParseError);
  EXPECT_THROW(Json::Parse("[1,]"), ParseError);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::Parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::Parse("tru"), ParseError);
  EXPECT_THROW(Json::Parse("1 2"), ParseError);  // Trailing garbage.
  EXPECT_THROW(Json::Parse("\"\\u00g0\""), ParseError);
}

TEST(JsonParseTest, TypeMismatchThrows) {
  const Json doc = Json::Parse("{\"a\": 1}");
  EXPECT_THROW(doc.At("a").AsString(), ParseError);
  EXPECT_THROW(doc.At("missing"), ParseError);
  EXPECT_THROW(doc.At("a").AsArray(), ParseError);
  EXPECT_THROW(Json::Parse("1.5").AsInt(), ParseError);
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const std::string text =
      R"({"array":{"count":16,"height":32,"width":16},"name":"NVSA"})";
  const Json doc = Json::Parse(text);
  EXPECT_EQ(doc.Dump(), text);
}

TEST(JsonDumpTest, RoundTripPreservesValue) {
  JsonObject obj;
  obj["pi"] = Json(3.14159);
  obj["n"] = Json(std::int64_t{42});
  obj["s"] = Json("line1\nline2");
  obj["list"] = Json(JsonArray{Json(1), Json(true), Json(nullptr)});
  const Json original{std::move(obj)};
  EXPECT_EQ(Json::Parse(original.Dump()), original);
  EXPECT_EQ(Json::Parse(original.Dump(2)), original);
}

TEST(JsonDumpTest, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Json(std::int64_t{272000000}).Dump(), "272000000");
  EXPECT_EQ(Json(16.0).Dump(), "16");
}

/// The number format the dump promises: an integral |d| < 1e15 through
/// std::to_string, anything else through printf's "%.17g".
std::string PrintfFormat(double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(d));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

TEST(JsonDumpTest, NumbersMatchPrintf) {
  const double listed[] = {0.0,
                           -0.0,
                           1e15 - 1,
                           -(1e15 - 1),
                           1e15,
                           -1e15,
                           9007199254740992.0,  // 2^53.
                           DBL_TRUE_MIN,        // The least denormal.
                           -4.9406564584124654e-320,
                           DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           0.1,
                           1.0 / 3.0,
                           -2.5,
                           123456789.125};
  for (const double d : listed) {
    EXPECT_EQ(Json(d).Dump(), PrintfFormat(d)) << PrintfFormat(d);
  }
  // Finite random bit patterns (every exponent, denormals included) and
  // random integers on both sides of 1e15. printf is slow on extreme
  // exponents, so the sweep is sized to stay under 0.5 s in Release.
  std::mt19937_64 rng(20261018);
  std::uniform_int_distribution<std::int64_t> integer(-3'000'000'000'000'000,
                                                      3'000'000'000'000'000);
  std::int64_t mismatches = 0;
  for (int n = 0; n < 100000; ++n) {
    double d = 0.0;
    const std::uint64_t bits = rng();
    std::memcpy(&d, &bits, sizeof d);
    for (const double value : {d, static_cast<double>(integer(rng))}) {
      if (!std::isfinite(value)) {
        continue;
      }
      const std::string want = PrintfFormat(value);
      if (Json(value).Dump() != want && mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch: " << Json(value).Dump() << " vs "
                      << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonDumpTest, IndentedOutputIsStable) {
  const Json doc = Json::Parse(R"({"b": [1, 2], "a": 3})");
  const std::string pretty = doc.Dump(2);
  // std::map ordering: keys sorted -> "a" before "b"; diffable output.
  EXPECT_LT(pretty.find("\"a\""), pretty.find("\"b\""));
  EXPECT_NE(pretty.find("\n"), std::string::npos);
}

TEST(JsonAccessorsTest, GetOrDefaults) {
  const Json doc = Json::Parse(R"({"x": 5, "s": "v"})");
  EXPECT_DOUBLE_EQ(doc.GetNumberOr("x", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(doc.GetNumberOr("y", 7.5), 7.5);
  EXPECT_EQ(doc.GetStringOr("s", "d"), "v");
  EXPECT_EQ(doc.GetStringOr("t", "d"), "d");
  EXPECT_TRUE(doc.Contains("x"));
  EXPECT_FALSE(doc.Contains("zz"));
}

TEST(JsonAccessorsTest, MutationViaIndexOperator) {
  Json doc;
  doc["a"]["b"] = Json(1);
  EXPECT_EQ(doc.At("a").At("b").AsInt(), 1);
}

}  // namespace
}  // namespace nsflow
