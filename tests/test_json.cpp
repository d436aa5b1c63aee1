// Unit + property tests for the JSON library.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cedr/common/rng.h"
#include "cedr/json/json.h"

namespace cedr::json {
namespace {

TEST(JsonParse, Literals) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_TRUE(parse("true")->as_bool());
  EXPECT_FALSE(parse("false")->as_bool());
}

TEST(JsonParse, Integers) {
  auto v = parse("42");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_int());
  EXPECT_EQ(v->as_int(), 42);
  EXPECT_EQ(parse("-7")->as_int(), -7);
  EXPECT_EQ(parse("0")->as_int(), 0);
}

TEST(JsonParse, Doubles) {
  EXPECT_DOUBLE_EQ(parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-2.5e3")->as_double(), -2500.0);
  EXPECT_DOUBLE_EQ(parse("1E-3")->as_double(), 0.001);
  EXPECT_TRUE(parse("3.5")->is_double());
}

TEST(JsonParse, IntOverflowFallsBackToDouble) {
  auto v = parse("99999999999999999999999999");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_double());
  EXPECT_GT(v->as_double(), 9e25);
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(parse(R"("hello")")->as_string(), "hello");
  EXPECT_EQ(parse(R"("a\"b\\c\/d\b\f\n\r\t")")->as_string(),
            "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(parse(R"("é")")->as_string(), "\xc3\xa9");        // é
  EXPECT_EQ(parse(R"("€")")->as_string(), "\xe2\x82\xac");    // €
  EXPECT_EQ(parse(R"("😀")")->as_string(),
            "\xf0\x9f\x98\x80");  // 😀 via surrogate pair
}

TEST(JsonParse, Arrays) {
  auto v = parse("[1, 2.5, \"x\", null, [true]]");
  ASSERT_TRUE(v.ok());
  const Array& a = v->as_array();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a[1].as_double(), 2.5);
  EXPECT_EQ(a[2].as_string(), "x");
  EXPECT_TRUE(a[3].is_null());
  EXPECT_TRUE(a[4].as_array()[0].as_bool());
}

TEST(JsonParse, Objects) {
  auto v = parse(R"({"name": "cedr", "pes": 4, "nested": {"k": [1,2]}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->get_string("name", ""), "cedr");
  EXPECT_EQ(v->get_int("pes", 0), 4);
  ASSERT_NE(v->find("nested"), nullptr);
  EXPECT_EQ(v->find("nested")->find("k")->as_array().size(), 2u);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]")->as_array().empty());
  EXPECT_TRUE(parse("{}")->as_object().empty());
  EXPECT_TRUE(parse(" [ ] ")->as_array().empty());
}

TEST(JsonParse, WhitespaceTolerated) {
  auto v = parse("  {\n \"a\" :\t1 , \"b\" : [ 1 , 2 ] }\r\n");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->get_int("a", 0), 1);
}

struct BadCase {
  const char* name;
  const char* text;
};

// Print a case as its name, so the test names that gtest lists and ctest
// registers do not embed the addresses of the string literals.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class JsonParseErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(JsonParseErrors, Rejected) {
  const auto result = parse(GetParam().text);
  EXPECT_FALSE(result.ok()) << GetParam().name;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParseErrors,
    ::testing::Values(
        BadCase{"empty", ""}, BadCase{"bare_brace", "{"},
        BadCase{"trailing", "1 2"}, BadCase{"bad_literal", "nul"},
        BadCase{"unterminated_string", "\"abc"},
        BadCase{"unterminated_array", "[1, 2"},
        BadCase{"missing_colon", "{\"a\" 1}"},
        BadCase{"missing_comma", "[1 2]"},
        BadCase{"control_char", "\"a\nb\""},
        BadCase{"bad_escape", R"("\q")"},
        BadCase{"bad_hex", R"("\u00zz")"},
        BadCase{"lone_high_surrogate", R"("\ud800")"},
        BadCase{"lone_low_surrogate", R"("\udc00")"},
        BadCase{"bad_number", "-"}, BadCase{"bad_number2", "1.2.3"},
        BadCase{"nonstring_key", "{1: 2}"},
        BadCase{"trailing_comma_obj", "{\"a\":1,}"}),
    [](const auto& info) { return info.param.name; });

TEST(JsonParse, ErrorsReportLineAndColumn) {
  const auto result = parse("{\n  \"a\": nul\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status().message();
}

TEST(JsonParse, DeepNestingRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(parse(deep).ok());
}

TEST(JsonDump, CompactAndPretty) {
  Value v = Object{{"b", Value(1)}, {"a", Value(Array{Value(true)})}};
  EXPECT_EQ(v.dump(), R"({"a":[true],"b":1})");
  const std::string pretty = v.dump_pretty();
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(*parse(pretty), v);
}

TEST(JsonDump, EscapesSpecialCharacters) {
  Value v = std::string("a\"b\\c\nd\x01");
  const std::string out = v.dump();
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
  EXPECT_EQ(parse(out)->as_string(), v.as_string());
}

TEST(JsonDump, DoubleKeepsDecimalPoint) {
  EXPECT_EQ(Value(2.0).dump(), "2.0");
  EXPECT_TRUE(parse(Value(2.0).dump())->is_double());
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(JsonValue, TypedGettersWithFallbacks) {
  auto v = parse(R"({"i": 3, "d": 1.5, "s": "x", "b": true})");
  EXPECT_EQ(v->get_int("i", -1), 3);
  EXPECT_EQ(v->get_int("missing", -1), -1);
  EXPECT_DOUBLE_EQ(v->get_double("d", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(v->get_double("i", 0.0), 3.0);  // int promotes
  EXPECT_EQ(v->get_string("s", "y"), "x");
  EXPECT_EQ(v->get_string("i", "y"), "y");  // wrong type -> fallback
  EXPECT_TRUE(v->get_bool("b", false));
}

TEST(JsonValue, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_FALSE(Value(3) == Value(3.5));
}

TEST(JsonFile, RoundTripThroughDisk) {
  const std::string path = ::testing::TempDir() + "/cedr_json_test.json";
  Value v = Object{{"x", Value(Array{Value(1), Value("two"), Value(3.5)})}};
  ASSERT_TRUE(write_file(path, v).ok());
  auto back = parse_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v);
}

TEST(JsonFile, MissingFileIsNotFound) {
  EXPECT_EQ(parse_file("/nonexistent/path.json").status().code(),
            StatusCode::kNotFound);
}

// Property: random documents survive dump -> parse round-trips exactly.
Value random_value(Rng& rng, int depth) {
  const std::uint64_t pick = rng.next_below(depth >= 3 ? 4 : 6);
  switch (pick) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.next_below(2) == 1);
    case 2: return Value(static_cast<std::int64_t>(rng.next_u64() >> 16));
    case 3: {
      std::string s;
      const auto len = rng.next_below(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>(rng.next_below(94) + 33);
      }
      return Value(std::move(s));
    }
    case 4: {
      Array a;
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        a.push_back(random_value(rng, depth + 1));
      }
      return Value(std::move(a));
    }
    default: {
      Object o;
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        o.emplace("k" + std::to_string(i), random_value(rng, depth + 1));
      }
      return Value(std::move(o));
    }
  }
}

class JsonRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTripProperty, DumpParseIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int i = 0; i < 50; ++i) {
    const Value v = random_value(rng, 0);
    auto compact = parse(v.dump());
    ASSERT_TRUE(compact.ok()) << v.dump();
    EXPECT_EQ(*compact, v);
    auto pretty = parse(v.dump_pretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(*pretty, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace cedr::json
