// JSON: tree build/dump/parse round trips, strict-parse errors, and the
// response writer (JsonWriter) against the tree dump and the snprintf oracle.
#include "api/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "wire_fixtures.h"

namespace symref::api {
namespace {

// The encoders the wire format was defined by, kept verbatim as oracles:
// the shortest "%.{p}g" text (p < 17, else %.17g) that sscanf reads back
// as the value, and a per-character escape loop.
std::string oracle_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double reparsed = 0.0;
  std::sscanf(buffer, "%lg", &reparsed);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    std::sscanf(candidate, "%lg", &reparsed);
    if (reparsed == value) {
      std::memcpy(buffer, candidate, sizeof(candidate));
      break;
    }
  }
  return buffer;
}

std::string oracle_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", u);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

TEST(Json, BuildAndDumpCompact) {
  Json out = Json::object();
  out.set("name", "ua741");
  out.set("ok", true);
  out.set("count", 3);
  Json list = Json::array();
  list.push_back(1.5);
  list.push_back(nullptr);
  out.set("values", std::move(list));
  EXPECT_EQ(out.dump(), R"({"name":"ua741","ok":true,"count":3,"values":[1.5,null]})");
}

TEST(Json, ObjectPreservesInsertionOrderAndReplaces) {
  Json out = Json::object();
  out.set("b", 1);
  out.set("a", 2);
  out.set("b", 3);  // replace in place, order kept
  EXPECT_EQ(out.dump(), R"({"b":3,"a":2})");
}

TEST(Json, NumbersRoundTripShortest) {
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(6.0).dump(), "6");
  EXPECT_EQ(Json(1e300).dump(), "1e+300");
  // 17 digits only when needed.
  const double precise = 0.1234567890123456789;
  const Json parsed = Json::parse(Json(precise).dump()).take();
  EXPECT_EQ(parsed.as_number(), precise);
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringEscapes) {
  const Json value(std::string("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(value.dump(), R"("a\"b\\c\nd\te\u0001")");
  const Json back = Json::parse(value.dump()).take();
  EXPECT_EQ(back.as_string(), value.as_string());
}

TEST(JsonDifferential, NumbersMatchTheSnprintfOracle) {
  std::vector<double> inputs = wire_fixtures::seeded_doubles(1'000'000, 0x5eed);
  for (const double value : wire_fixtures::special_doubles()) inputs.push_back(value);
  for (const double value : wire_fixtures::non_finite_doubles()) inputs.push_back(value);
  for (const double value : wire_fixtures::powers_of_two()) inputs.push_back(value);
  std::vector<std::string> examples;
  const std::size_t mismatches = wire_fixtures::differential_mismatches(
      inputs, [](double value) { return Json(value).dump(); }, oracle_number, &examples);
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
  for (const std::string& example : examples) ADD_FAILURE() << example;
}

/// Integers where the fast path and the general %g rule meet: every
/// integer in +-2^20, +-k*10^j (trailing zeros take the exponent style),
/// seeded 53-bit integers, and the 2^53 boundary with -0.
std::vector<double> integer_edges() {
  std::vector<double> out;
  for (int i = -(1 << 20); i <= (1 << 20); ++i) out.push_back(i);
  for (int j = 0; j <= 22; ++j) {
    for (int k = 1; k < 100; ++k) {
      const double value = k * std::pow(10.0, j);
      out.push_back(value);
      out.push_back(-value);
    }
  }
  wire_fixtures::SplitMix64 rng(0x1e7);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t bits = rng.next();
    const auto magnitude = static_cast<double>((bits >> 11) >> (rng.next() % 53));
    out.push_back((bits & 1) != 0 ? -magnitude : magnitude);
  }
  const double two53 = 9007199254740992.0;
  for (const double value : {two53 - 1.0, two53, two53 + 2.0, -(two53 - 1.0), -two53,
                             -(two53 + 2.0), -0.0, 0.0}) {
    out.push_back(value);
  }
  return out;
}

TEST(JsonDifferential, IntegersMatchTheSnprintfOracle) {
  const std::vector<double> inputs = integer_edges();
  std::vector<std::string> examples;
  const std::size_t mismatches = wire_fixtures::differential_mismatches(
      inputs, [](double value) { return Json(value).dump(); }, oracle_number, &examples);
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
  for (const std::string& example : examples) ADD_FAILURE() << example;
  EXPECT_EQ(Json(300.0).dump(), "3e+02");
  EXPECT_EQ(Json(-100000.0).dump(), "-1e+05");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(9007199254740991.0).dump(), "9007199254740991");
  EXPECT_EQ(Json(-9007199254740991.0).dump(), "-9007199254740991");
}

TEST(JsonDifferential, SpecialNumbersEncodeAsBefore) {
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(5e-324).dump(), "5e-324");
  EXPECT_EQ(Json(1e23).dump(), "1e+23");
  EXPECT_EQ(Json(9007199254740993.0).dump(), "9007199254740992");
  EXPECT_EQ(Json(100000.0).dump(), "1e+05");
  EXPECT_EQ(Json(300.0).dump(), "3e+02");
  EXPECT_EQ(Json(std::numeric_limits<double>::max()).dump(), "1.7976931348623157e+308");
  // Shortest round trip is 16 digits, but %.16g rounds to a text that
  // does not read back.
  EXPECT_EQ(Json(0x1p-1017).dump(), "7.1202363472230444e-307");
}

TEST(JsonDifferential, EveryByteEscapesLikeTheOracle) {
  std::string all;
  for (int byte = 0; byte <= 0xff; ++byte) {
    const std::string text = "ab" + std::string(1, static_cast<char>(byte)) + "cd";
    EXPECT_EQ(Json(text).dump(), oracle_string(text)) << "byte 0x" << std::hex << byte;
    EXPECT_EQ(Json(text.substr(2, 1)).dump(), oracle_string(text.substr(2, 1)))
        << "byte 0x" << std::hex << byte;
    all += static_cast<char>(byte);
  }
  EXPECT_EQ(Json(all).dump(), oracle_string(all));
  EXPECT_EQ(Json(all + all).dump(), oracle_string(all + all));
  EXPECT_EQ(Json(std::string()).dump(), "\"\"");
}

TEST(JsonWriter, WritesTheBytesOfTheTreeDump) {
  Json tree = Json::object();
  tree.set("empty_array", Json::array());
  tree.set("empty_object", Json::object());
  Json list = Json::array();
  list.push_back(1.5);
  list.push_back(nullptr);
  Json inner = Json::object();
  inner.set("flag", false);
  inner.set("text", "q\"uote\n");
  list.push_back(std::move(inner));
  list.push_back(Json::array());
  tree.set("list", std::move(list));
  tree.set("inf", std::numeric_limits<double>::infinity());
  tree.set("count", 7);
  tree.set("hex", "-0x1.8p+1");

  JsonWriter out;
  out.begin_object()
      .key("empty_array")
      .begin_array()
      .end_array()
      .key("empty_object")
      .begin_object()
      .end_object()
      .key("list")
      .begin_array()
      .value(1.5)
      .null()
      .begin_object()
      .member("flag", false)
      .member("text", "q\"uote\n")
      .end_object()
      .begin_array()
      .end_array()
      .end_array()
      .member("inf", std::numeric_limits<double>::infinity())
      .member("count", 7)
      .hex_member("hex", -3.0)
      .end_object();
  const Json encoded = out.take();
  EXPECT_EQ(encoded.dump(), tree.dump());
  EXPECT_EQ(encoded.dump(2), tree.dump(2));
  EXPECT_EQ(*encoded.dump_shared(), tree.dump());
  EXPECT_EQ(*tree.dump_shared(), tree.dump());
}

TEST(JsonWriter, TopLevelScalarsAndHexWords) {
  JsonWriter number;
  number.value(300.0);
  EXPECT_EQ(number.take().dump(), "3e+02");
  JsonWriter words;
  words.begin_array()
      .hex(std::numeric_limits<double>::infinity())
      .hex(-std::numeric_limits<double>::infinity())
      .hex(std::numeric_limits<double>::quiet_NaN())
      .hex(-0.0)
      .end_array();
  EXPECT_EQ(words.take().dump(), R"(["inf","-inf","nan","-0x0p+0"])");
}

TEST(Json, ParseDocument) {
  const auto result = Json::parse(R"(
    {"spec": {"in": "inp", "out": "vo"},
     "options": {"sigma": 6, "deflate": true},
     "grid": [1, 10.5, 1e3],
     "note": "uA"}
  )");
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Json& doc = result.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("spec")->find("in")->as_string(), "inp");
  EXPECT_EQ(doc.find("options")->find("sigma")->as_int(), 6);
  EXPECT_TRUE(doc.find("options")->find("deflate")->as_bool());
  ASSERT_EQ(doc.find("grid")->size(), 3u);
  EXPECT_EQ(doc.find("grid")->items()[2].as_number(), 1e3);
  EXPECT_EQ(doc.find("note")->as_string(), "uA");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, DumpPrettyReparses) {
  Json out = Json::object();
  out.set("a", Json::array().push_back(1).push_back(2));
  Json inner = Json::object();
  inner.set("k", "v");
  out.set("b", std::move(inner));
  const std::string pretty = out.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const auto reparsed = Json::parse(pretty);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), out.dump());
}

// An encoded node splices its text into the envelope it is set on: a
// compact dump appends the bytes verbatim, an indented one gives exactly
// the bytes of the parsed equivalent (nested at the node's depth).
TEST(Json, EncodedNodeSplicesItsText) {
  Json payload = Json::object();
  payload.set("type", "refgen");
  payload.set("values", Json::array().push_back(0.1).push_back(-2.5e-300).push_back(nullptr));
  Json nested = Json::object();
  nested.set("note", "quote \" and\nnewline");
  nested.set("empty", Json::array());
  nested.set("empty_object", Json::object());
  // Structural characters and escapes inside strings are not layout.
  nested.set("tricky", Json::array().push_back("a\\\"{,}:[]\\").push_back("\\"));
  payload.set("nested", std::move(nested));
  const auto text = std::make_shared<const std::string>(payload.dump());

  Json spliced = Json::object();
  spliced.set("event", "done");
  spliced.set("result", Json::encoded(text));
  Json inline_copy = Json::object();
  inline_copy.set("event", "done");
  inline_copy.set("result", payload);

  EXPECT_EQ(spliced.dump(), R"({"event":"done","result":)" + *text + "}");
  EXPECT_EQ(spliced.dump(), inline_copy.dump());
  EXPECT_EQ(spliced.dump(2), inline_copy.dump(2));
  EXPECT_EQ(spliced.dump(0), inline_copy.dump(0));
  EXPECT_EQ(Json::encoded(text).dump(4), payload.dump(4));

  // The node is opaque to the accessors.
  const Json node = Json::encoded(text);
  EXPECT_FALSE(node.is_object());
  EXPECT_EQ(node.find("type"), nullptr);
  EXPECT_EQ(node.size(), 0u);
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  const auto result = Json::parse("{\n  \"a\": 1,\n  \"b\": bogus\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_EQ(result.status().location().line, 3);
  EXPECT_GT(result.status().location().column, 1);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "nul", "{\"a\" 1}", "{\"a\":1} extra", "\"unterminated",
        "01", "1.", "1e", "[1 2]", "{'a':1}", "\x01"}) {
    EXPECT_FALSE(Json::parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(Json, AccessorsAreTypeSafe) {
  const Json number(4.0);
  EXPECT_EQ(number.as_string(), "");
  EXPECT_TRUE(number.items().empty());
  EXPECT_TRUE(number.members().empty());
  EXPECT_EQ(number.find("x"), nullptr);
  EXPECT_EQ(number.size(), 0u);
  EXPECT_EQ(Json("text").as_number(7.0), 7.0);
}

}  // namespace
}  // namespace symref::api
