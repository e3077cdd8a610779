// The minimal JSON writer behind the BENCH_*.json artifacts.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/temp_path.hpp"

namespace ms::util {
namespace {

TEST(JsonObject, RendersFieldsInInsertionOrder) {
  JsonObject obj;
  obj.set("name", "array").set("edge", 16).set("seconds", 0.25).set("converged", true);
  EXPECT_EQ(obj.render(), "{\"name\": \"array\", \"edge\": 16, \"seconds\": 0.25, "
                          "\"converged\": true}");
}

TEST(JsonObject, EscapesStringsAndHandlesNonFinite) {
  JsonObject obj;
  obj.set("label", "a\"b\\c\nd").set("bad", std::nan(""));
  EXPECT_EQ(obj.render(), "{\"label\": \"a\\\"b\\\\c\\nd\", \"bad\": null}");
}

TEST(JsonObject, NumbersKeepPrecision) {
  JsonObject obj;
  obj.set("tiny", 1.25e-9).set("big", static_cast<std::int64_t>(1234567890123LL));
  EXPECT_EQ(obj.render(), "{\"tiny\": 1.25e-09, \"big\": 1234567890123}");
}

TEST(WriteBenchJson, ProducesTheStandardShape) {
  const std::string path = testutil::unique_temp_path("_bench.json");
  std::vector<JsonObject> records(2);
  records[0].set("scenario", "array").set("edge", 8);
  records[1].set("scenario", "submodel").set("edge", 5);
  write_bench_json(path, "thermal_coupling", records);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"bench\": \"thermal_coupling\""), std::string::npos);
  EXPECT_NE(text.find("{\"scenario\": \"array\", \"edge\": 8},"), std::string::npos);
  EXPECT_NE(text.find("{\"scenario\": \"submodel\", \"edge\": 5}\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteBenchJson, ThrowsOnUnwritablePath) {
  EXPECT_THROW(write_bench_json("/nonexistent-dir/x.json", "b", {}), std::runtime_error);
}

TEST(ParseJson, ScalarsAndNesting) {
  const JsonValue doc = parse_json(
      R"({"n": null, "t": true, "f": false, "x": -1.5e2, "s": "hi",
          "arr": [1, 2, 3], "obj": {"inner": "value"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_FALSE(doc.find("f")->boolean);
  EXPECT_DOUBLE_EQ(doc.find("x")->number, -150.0);
  EXPECT_EQ(doc.find("s")->string, "hi");
  ASSERT_TRUE(doc.find("arr")->is_array());
  ASSERT_EQ(doc.find("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("arr")->array[1].number, 2.0);
  ASSERT_TRUE(doc.find("obj")->is_object());
  EXPECT_EQ(doc.find("obj")->find("inner")->string, "value");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ParseJson, StringEscapes) {
  // \u00e9 must decode to two-byte UTF-8 (0xc3 0xa9).
  const JsonValue doc = parse_json(R"({"s": "a\"b\\c\nd\tA\u00e9"})");
  EXPECT_EQ(doc.find("s")->string, "a\"b\\c\nd\tA\xc3\xa9");
}

TEST(ParseJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);
}

TEST(ParseJson, RoundTripsJsonObjectOutput) {
  JsonObject obj;
  obj.set("name", "array").set("edge", 16).set("seconds", 0.25).set("converged", true);
  const JsonValue doc = parse_json(obj.render());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->string, "array");
  EXPECT_DOUBLE_EQ(doc.find("edge")->number, 16.0);
  EXPECT_DOUBLE_EQ(doc.find("seconds")->number, 0.25);
  EXPECT_TRUE(doc.find("converged")->boolean);
}

}  // namespace
}  // namespace ms::util
