/**
 * @file
 * Tests for the shared JSON helpers (core/json.hh): deterministic
 * number/string writers and the recursive-descent parser that
 * perfbench and the schema tests rely on.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/json.hh"

namespace
{

using namespace hdham;

std::string
numberText(double value)
{
    std::ostringstream out;
    json::writeNumber(out, value);
    return out.str();
}

std::string
escapedText(const std::string &s)
{
    std::ostringstream out;
    json::writeEscaped(out, s);
    return out.str();
}

TEST(JsonWriterTest, IntegersPrintExactly)
{
    EXPECT_EQ(numberText(0), "0");
    EXPECT_EQ(numberText(-3), "-3");
    EXPECT_EQ(numberText(1e15), "1000000000000000");
    EXPECT_EQ(numberText(65536), "65536");
}

TEST(JsonWriterTest, NonFiniteRendersAsZero)
{
    EXPECT_EQ(numberText(std::numeric_limits<double>::infinity()),
              "0");
    EXPECT_EQ(numberText(std::numeric_limits<double>::quiet_NaN()),
              "0");
}

TEST(JsonWriterTest, FractionsRoundTrip)
{
    const double value = 0.1 + 0.2;
    const json::Value parsed = json::parse(numberText(value));
    EXPECT_DOUBLE_EQ(parsed.asNumber(), value);
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(escapedText("plain"), "\"plain\"");
    EXPECT_EQ(escapedText("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(escapedText("line\nbreak\ttab"),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(escapedText(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonParserTest, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null").isNull());
    EXPECT_TRUE(json::parse("true").asBool());
    EXPECT_FALSE(json::parse("false").asBool());
    EXPECT_DOUBLE_EQ(json::parse("-12.5e2").asNumber(), -1250.0);
    EXPECT_EQ(json::parse("\"hi\"").asString(), "hi");
}

TEST(JsonParserTest, ParsesNestedStructures)
{
    const json::Value doc = json::parse(
        R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "a": 9})");
    ASSERT_TRUE(doc.isObject());
    const auto &items = doc.at("a").items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_DOUBLE_EQ(items[1].asNumber(), 2.0);
    EXPECT_EQ(items[2].at("b").asString(), "c");
    EXPECT_TRUE(doc.at("d").at("e").isNull());
    // Duplicate keys: find returns the first, members keeps both.
    EXPECT_EQ(doc.at("a").items().size(), 3u);
    EXPECT_EQ(doc.members().size(), 3u);
    EXPECT_FALSE(doc.has("zzz"));
    EXPECT_EQ(doc.find("zzz"), nullptr);
}

TEST(JsonParserTest, DecodesEscapesAndSurrogatePairs)
{
    const json::Value v =
        json::parse(R"("a\u00e9\n\ud83d\ude00b")");
    // U+00E9 is two UTF-8 bytes, U+1F600 four.
    EXPECT_EQ(v.asString(),
              std::string("a\xc3\xa9\n\xf0\x9f\x98\x80"
                          "b"));
}

TEST(JsonParserTest, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse(""), std::runtime_error);
    EXPECT_THROW(json::parse("{"), std::runtime_error);
    EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(json::parse("12 34"), std::runtime_error);
    EXPECT_THROW(json::parse("{'single': 1}"), std::runtime_error);
    EXPECT_THROW(json::parse("nul"), std::runtime_error);
}

TEST(JsonParserTest, RejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 300; ++i)
        deep += '[';
    EXPECT_THROW(json::parse(deep), std::runtime_error);
}

TEST(JsonParserTest, TypeMismatchesThrow)
{
    const json::Value v = json::parse("[1]");
    EXPECT_THROW(v.asNumber(), std::runtime_error);
    EXPECT_THROW(v.asString(), std::runtime_error);
    EXPECT_THROW(v.members(), std::runtime_error);
    EXPECT_THROW(v.at("k"), std::runtime_error);
    EXPECT_THROW(json::parse("3").items(), std::runtime_error);
}

} // namespace
