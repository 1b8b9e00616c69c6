#include <gtest/gtest.h>

#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis {
namespace {

TEST(JsonValueTest, KindsAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue::Bool(true).AsBool());
  EXPECT_EQ(JsonValue::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(JsonValue::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(JsonValue::Str("x").AsString(), "x");
  // Numeric cross-view.
  EXPECT_DOUBLE_EQ(JsonValue::Int(3).AsDouble(), 3.0);
  EXPECT_EQ(JsonValue::Double(3.7).AsInt(), 3);
}

TEST(JsonValueTest, ArrayAndObjectBuilding) {
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Str("two"));
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[1].AsString(), "two");

  JsonValue obj = JsonValue::Object();
  obj.Set("a", JsonValue::Int(1));
  obj.Set("b", std::move(arr));
  EXPECT_TRUE(obj.Has("a"));
  EXPECT_FALSE(obj.Has("z"));
  EXPECT_TRUE(obj.Get("z").is_null());
  EXPECT_EQ(obj.Get("b").size(), 2u);
}

TEST(JsonValueTest, CheckedGetters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("n", JsonValue::Int(5));
  obj.Set("s", JsonValue::Str("x"));
  obj.Set("b", JsonValue::Bool(true));
  EXPECT_EQ(*obj.GetInt("n"), 5);
  EXPECT_EQ(*obj.GetString("s"), "x");
  EXPECT_TRUE(*obj.GetBool("b"));
  EXPECT_DOUBLE_EQ(*obj.GetDouble("n"), 5.0);
  EXPECT_FALSE(obj.GetInt("s").ok());
  EXPECT_FALSE(obj.GetString("n").ok());
  EXPECT_FALSE(obj.GetBool("missing").ok());
}

TEST(JsonDumpTest, CompactForm) {
  JsonValue obj = JsonValue::Object();
  obj.Set("b", JsonValue::Bool(false));
  obj.Set("a", JsonValue::Int(1));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Null());
  arr.Append(JsonValue::Double(1.5));
  obj.Set("c", std::move(arr));
  // std::map orders keys.
  EXPECT_EQ(obj.Dump(), "{\"a\":1,\"b\":false,\"c\":[null,1.5]}");
}

TEST(JsonDumpTest, EscapesStrings) {
  JsonValue v = JsonValue::Str("a\"b\\c\nd\t");
  EXPECT_EQ(v.Dump(), "\"a\\\"b\\\\c\\nd\\t\"");
  JsonValue ctrl = JsonValue::Str(std::string(1, '\x01'));
  EXPECT_EQ(ctrl.Dump(), "\"\\u0001\"");
}

TEST(JsonDumpTest, PrettyIndents) {
  JsonValue obj = JsonValue::Object();
  obj.Set("x", JsonValue::Int(1));
  std::string pretty = obj.Pretty();
  EXPECT_NE(pretty.find("\n  \"x\": 1\n"), std::string::npos);
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool());
  EXPECT_EQ(JsonValue::Parse("42")->AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("-7")->AsInt(), -7);
  EXPECT_TRUE(JsonValue::Parse("42")->is_int());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-1.25E-2")->AsDouble(), -0.0125);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, StringsWithEscapes) {
  EXPECT_EQ(JsonValue::Parse("\"a\\nb\"")->AsString(), "a\nb");
  EXPECT_EQ(JsonValue::Parse("\"q\\\"q\"")->AsString(), "q\"q");
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\"")->AsString(), "A");
  EXPECT_EQ(JsonValue::Parse("\"\\u00e6\"")->AsString(), "\xC3\xA6");   // ae ligature
  EXPECT_EQ(JsonValue::Parse("\"\\u20ac\"")->AsString(), "\xE2\x82\xAC");  // euro sign
  EXPECT_EQ(JsonValue::Parse("\"a\\/b\"")->AsString(), "a/b");
}

TEST(JsonParseTest, NestedStructures) {
  Result<JsonValue> parsed =
      JsonValue::Parse(R"({"a": [1, {"b": null}, "x"], "c": {"d": true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("a").size(), 3u);
  EXPECT_TRUE(parsed->Get("a")[1].Get("b").is_null());
  EXPECT_TRUE(parsed->Get("c").Get("d").AsBool());
  // Empty containers.
  EXPECT_EQ(JsonValue::Parse("[]")->size(), 0u);
  EXPECT_TRUE(JsonValue::Parse("{}")->is_object());
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("{a: 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());      // trailing data
  EXPECT_FALSE(JsonValue::Parse("[1] x").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\u00g1\"").ok());
  EXPECT_FALSE(JsonValue::Parse("--5").ok());
}

// `depth` nested arrays, or objects {"k":{"k":...}}, around a 1.
std::string Nested(int depth, bool objects) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += objects ? "{\"k\":" : "[";
  text += "1";
  for (int i = 0; i < depth; ++i) text += objects ? "}" : "]";
  return text;
}

TEST(JsonParseTest, NestingUpToTheCapParses) {
  for (bool objects : {false, true}) {
    Result<JsonValue> parsed = JsonValue::Parse(Nested(JsonValue::kMaxDepth, objects));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* v = &*parsed;
    for (int i = 0; i < JsonValue::kMaxDepth; ++i) v = objects ? &v->Get("k") : &(*v)[0];
    EXPECT_EQ(v->AsInt(), 1);
  }
}

TEST(JsonParseTest, NestingBeyondTheCapIsRejectedNotACrash) {
  // 200k levels overflowed the stack before the cap existed.
  for (int depth : {JsonValue::kMaxDepth + 1, 200000}) {
    for (bool objects : {false, true}) {
      Result<JsonValue> parsed = JsonValue::Parse(Nested(depth, objects));
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << depth;
    }
  }
  // Unterminated and mixed deep input stops at the cap as well.
  EXPECT_EQ(JsonValue::Parse(std::string(200000, '[')).status().code(),
            StatusCode::kInvalidArgument);
  std::string mixed;
  for (int i = 0; i < 100000; ++i) mixed += "[{\"k\":";
  EXPECT_EQ(JsonValue::Parse(mixed).status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonParseTest, WhitespaceTolerance) {
  Result<JsonValue> parsed = JsonValue::Parse("  {\n\t\"a\" :\r [ 1 , 2 ]  }  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a").size(), 2u);
}

TEST(JsonRoundTripTest, DumpParseIdentity) {
  JsonValue obj = JsonValue::Object();
  obj.Set("int", JsonValue::Int(-123456789));
  obj.Set("dbl", JsonValue::Double(0.1));
  obj.Set("str", JsonValue::Str("line\n\"quoted\" \\slash"));
  obj.Set("null", JsonValue::Null());
  obj.Set("flag", JsonValue::Bool(true));
  JsonValue inner = JsonValue::Array();
  for (int i = 0; i < 5; ++i) inner.Append(JsonValue::Int(i));
  obj.Set("arr", std::move(inner));

  Result<JsonValue> reparsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, obj);
  // Pretty output parses back identically too.
  Result<JsonValue> from_pretty = JsonValue::Parse(obj.Pretty());
  ASSERT_TRUE(from_pretty.ok());
  EXPECT_EQ(*from_pretty, obj);
}

// Property: random documents survive dump->parse->dump.
class JsonPropertyTest : public ::testing::TestWithParam<uint64_t> {};

JsonValue RandomJson(Rng& rng, int depth) {
  int kind = static_cast<int>(rng.UniformInt(0, depth <= 0 ? 4 : 6));
  switch (kind) {
    case 0: return JsonValue::Null();
    case 1: return JsonValue::Bool(rng.Bernoulli(0.5));
    case 2: return JsonValue::Int(rng.UniformInt(-1000000, 1000000));
    case 3: return JsonValue::Double(rng.Uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      int len = static_cast<int>(rng.UniformInt(0, 12));
      for (int i = 0; i < len; ++i) {
        s += static_cast<char>(rng.UniformInt(32, 126));
      }
      return JsonValue::Str(std::move(s));
    }
    case 5: {
      JsonValue arr = JsonValue::Array();
      int n = static_cast<int>(rng.UniformInt(0, 4));
      for (int i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::Object();
      int n = static_cast<int>(rng.UniformInt(0, 4));
      for (int i = 0; i < n; ++i) {
        obj.Set(StrFormat("k%d", i), RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST_P(JsonPropertyTest, RandomDocumentsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    JsonValue doc = RandomJson(rng, 4);
    Result<JsonValue> reparsed = JsonValue::Parse(doc.Dump());
    ASSERT_TRUE(reparsed.ok()) << doc.Dump();
    EXPECT_EQ(*reparsed, doc) << doc.Dump();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace flexvis
