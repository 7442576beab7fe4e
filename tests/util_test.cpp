// Unit tests for the utility substrate: contracts, RNG, strings, JSON,
// CSV, and the table printer.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "util/contracts.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace gqa {
namespace {

// ----------------------------------------------------------- contracts ---

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(GQA_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(GQA_EXPECTS(1 == 1));
}

TEST(Contracts, MessageIncludesConditionAndFile) {
  try {
    GQA_EXPECTS_MSG(false, "details here");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("details here"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresAndAssertAlsoThrow) {
  EXPECT_THROW(GQA_ENSURES(false), ContractViolation);
  EXPECT_THROW(GQA_ASSERT(false), ContractViolation);
}

// ----------------------------------------------------------------- rng ---

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.canonical(), b.canonical());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, UniformIntCoversBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng child1 = parent.fork(1);
  Rng child1b = Rng(99).fork(1);
  EXPECT_DOUBLE_EQ(child1.canonical(), child1b.canonical());
  Rng child2 = parent.fork(2);
  EXPECT_NE(child1.canonical(), child2.canonical());
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
}

TEST(Rng, InvalidRangesThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.uniform_int(5, 4), ContractViolation);
  EXPECT_THROW(rng.index(0), ContractViolation);
}

// ------------------------------------------------------------- strings ---

TEST(Strings, FormatBasics) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(sci(0.00134, 2), "1.34e-03");
  EXPECT_EQ(fixed(74.527, 2), "74.53");
  EXPECT_EQ(pow2_label(-3), "2^-3");
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("GeLU"), "gelu");
  EXPECT_TRUE(starts_with("gqa-lut", "gqa"));
  EXPECT_FALSE(starts_with("gqa", "gqa-lut"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// The bench_to_json completeness gate: a silently-skipped section must be
// reported (and the tool exits non-zero), never yield a stale artifact.
TEST(Strings, MissingEntriesReportsSkippedSectionsInOrder) {
  const std::vector<std::string> expected = {"fit", "kernel", "model",
                                             "serve", "coserve"};
  EXPECT_TRUE(missing_entries(expected, expected).empty());
  EXPECT_EQ(missing_entries(expected, {"kernel", "fit", "serve"}),
            (std::vector<std::string>{"model", "coserve"}));
  EXPECT_EQ(missing_entries(expected, {}), expected);
  EXPECT_TRUE(missing_entries({}, {"extra"}).empty());
  // Unexpected extras are not the gate's business.
  EXPECT_TRUE(missing_entries(expected,
                              {"fit", "kernel", "model", "serve", "coserve",
                               "extra"})
                  .empty());
}

// ---------------------------------------------------------------- json ---

TEST(Json, BuildAndDumpRoundTrip) {
  Json j = Json::object();
  j["name"] = Json("gelu");
  j["lambda"] = Json(5);
  j["ok"] = Json(true);
  j["values"] = Json::array_of({1.5, -2.25, 0.0});
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "gelu");
  EXPECT_EQ(parsed.at("lambda").as_int(), 5);
  EXPECT_TRUE(parsed.at("ok").as_bool());
  const auto values = parsed.at("values").as_double_array();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], -2.25);
}

TEST(Json, PreservesDoublesExactly) {
  Json j = Json::object();
  j["v"] = Json(0.1234567890123456789);
  const Json parsed = Json::parse(j.dump(-1));
  EXPECT_DOUBLE_EQ(parsed.at("v").as_number(), 0.1234567890123456789);
}

TEST(Json, EscapedStrings) {
  Json j = Json::object();
  j["s"] = Json("a\"b\\c\nd");
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.at("s").as_string(), "a\"b\\c\nd");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(Json::parse("12abc"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} extra"), std::runtime_error);
}

TEST(Json, NestingDepthIsBounded) {
  // The parser recurses once per level: input nested past the limit must
  // throw its typed error, not overflow the stack.
  const auto objects = [](int depth) {
    std::string text;
    for (int i = 1; i < depth; ++i) text += "{\"a\":";
    text += "{}";
    return text + std::string(static_cast<std::size_t>(depth - 1), '}');
  };
  const auto arrays = [](int depth) {
    const auto n = static_cast<std::size_t>(depth);
    return std::string(n, '[') + std::string(n, ']');
  };
  std::string unclosed_objects;
  for (int i = 0; i < 100000; ++i) unclosed_objects += "{\"a\":";
  EXPECT_THROW(Json::parse(std::string(100000, '[')), std::runtime_error);
  EXPECT_THROW(Json::parse(unclosed_objects), std::runtime_error);

  const int limit = Json::kMaxParseDepth;
  EXPECT_NO_THROW((void)Json::parse(arrays(limit)));
  EXPECT_NO_THROW((void)Json::parse(objects(limit)));
  EXPECT_THROW(Json::parse(arrays(limit + 1)), std::runtime_error);
  EXPECT_THROW(Json::parse(objects(limit + 1)), std::runtime_error);
  try {
    (void)Json::parse(arrays(limit + 1));
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("Json parse error at"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.at("a").as_string(), std::runtime_error);
  EXPECT_THROW(j.at("missing"), std::runtime_error);
  EXPECT_THROW(j.at(std::size_t{0}), std::runtime_error);
}

TEST(Json, FileRoundTrip) {
  const std::string path = "/tmp/gqa_json_test.json";
  write_file(path, "{\"x\": [1, 2, 3]}");
  const Json j = Json::parse(read_file(path));
  EXPECT_EQ(j.at("x").size(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(read_file("/nonexistent/dir/f.json"), std::runtime_error);
}

// ----------------------------------------------------------------- csv ---

TEST(Csv, EscapesSpecialFields) {
  const std::string path = "/tmp/gqa_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row(std::vector<std::string>{"a", "b,c", "d\"e"});
    csv.write_row(std::vector<double>{1.5, 2.0});
  }
  const std::string content = read_file(path);
  EXPECT_NE(content.find("\"b,c\""), std::string::npos);
  EXPECT_NE(content.find("\"d\"\"e\""), std::string::npos);
  EXPECT_NE(content.find("1.5,2"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------- table printer ---

TEST(TablePrinter, AlignsAndRendersMarkdown) {
  TablePrinter t({"Method", "MSE"});
  t.set_title("demo");
  t.add_row({"NN-LUT", "1.3e-03"});
  t.add_separator();
  t.add_row({"GQA", "9.4e-05"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("| NN-LUT"), std::string::npos);
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| Method | MSE |"), std::string::npos);
  EXPECT_NE(md.find("| GQA | 9.4e-05 |"), std::string::npos);
}

TEST(TablePrinter, RejectsMismatchedRows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ContractViolation);
}

}  // namespace
}  // namespace gqa
