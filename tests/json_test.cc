// Tests for the JSON reader and number writer (src/base/json.h) and the
// formats that read through it: hostile nesting, malformed numbers in the
// query log and statistics catalog, escapes, exact u64, non-finite values,
// and metrics gauges that need more than six significant digits.

#include "base/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/feedback.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace ldl {
namespace {

void ExpectInvalid(const Status& st, const std::string& needle) {
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("at offset"), std::string::npos)
      << st.ToString();
}

TEST(JsonTest, DeepNestingIsATypedError) {
  const auto parsed = json::Parse(std::string(1'000'000, '['));
  ASSERT_FALSE(parsed.ok());
  ExpectInvalid(parsed.status(), "nesting deeper than 1024 levels");

  // The cap itself is accepted.
  const std::string at_cap = std::string(json::kMaxDepth, '[') +
                             std::string(json::kMaxDepth, ']');
  EXPECT_TRUE(json::Parse(at_cap).ok());
  EXPECT_FALSE(json::Parse("[" + at_cap + "]").ok());
}

TEST(JsonTest, QueryLogRejectsMalformedValuesNamingTheKey) {
  const auto bad_double = QueryLogRecord::FromJson("{\"total_ms\":12abc}");
  ASSERT_FALSE(bad_double.ok());
  ExpectInvalid(bad_double.status(), "\"total_ms\"");

  const auto negative = QueryLogRecord::FromJson("{\"answers\":-1}");
  ASSERT_FALSE(negative.ok());
  ExpectInvalid(negative.status(), "\"answers\"");

  const auto quoted = QueryLogRecord::FromJson("{\"answers\":\"4\"}");
  ASSERT_FALSE(quoted.ok());
  ExpectInvalid(quoted.status(), "\"answers\"");
}

TEST(JsonTest, CatalogRejectsMalformedNumbersWithoutMutating) {
  StatisticsCatalog catalog;
  catalog.Observe(PredicateId{"keep", 1}, Adornment::AllFree(1), 1, 1);
  const std::string before = catalog.ToJson();

  const Status bad_card = catalog.MergeJson(
      "{\"version\":1,\"entries\":[{\"predicate\":\"p\",\"arity\":1,"
      "\"adornment\":\"f\",\"card\":5abc,\"weight\":1,\"observations\":1}]}");
  ExpectInvalid(bad_card, "\"card\"");

  const Status bad_version =
      catalog.MergeJson("{\"version\":1x,\"entries\":[]}");
  ExpectInvalid(bad_version, "\"version\"");

  EXPECT_EQ(catalog.ToJson(), before);
}

TEST(JsonTest, StringEscapesDecodeToUtf8) {
  const auto doc =
      json::Parse(R"({"a":"A","e":"é","smile":"😀"})");
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::string a, e, smile;
  ASSERT_TRUE(doc->Get("a", &a).ok());
  ASSERT_TRUE(doc->Get("e", &e).ok());
  ASSERT_TRUE(doc->Get("smile", &smile).ok());
  EXPECT_EQ(a, "A");
  EXPECT_EQ(e, "\xC3\xA9");
  EXPECT_EQ(smile, "\xF0\x9F\x98\x80");

  ExpectInvalid(json::Parse(R"(["\ud800"])").status(), "surrogate");
  ExpectInvalid(json::Parse(R"(["\ud800A"])").status(), "surrogate");
  ExpectInvalid(json::Parse(R"(["\udc00"])").status(), "surrogate");
}

TEST(JsonTest, U64RoundTripsExactly) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  std::string out = "{";
  json::AppendField(&out, "n", max);
  out.back() = '}';
  EXPECT_EQ(out, "{\"n\":18446744073709551615}");
  const auto doc = json::Parse(out);
  ASSERT_TRUE(doc.ok()) << doc.status();
  uint64_t n = 0;
  ASSERT_TRUE(doc->Get("n", &n).ok());
  EXPECT_EQ(n, max);

  QueryLogRecord rec;
  rec.answers = max;
  const auto back = QueryLogRecord::FromJson(rec.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->answers, max);
}

TEST(JsonTest, NonFiniteValuesRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  std::string out = "{";
  json::AppendField(&out, "pos", inf);
  json::AppendField(&out, "neg", -inf);
  json::AppendField(&out, "nan", std::numeric_limits<double>::quiet_NaN());
  out.back() = '}';
  EXPECT_EQ(out, "{\"pos\":\"inf\",\"neg\":\"-inf\",\"nan\":\"nan\"}");
  const auto doc = json::Parse(out);
  ASSERT_TRUE(doc.ok()) << doc.status();
  double pos = 0, neg = 0, nan = 0;
  ASSERT_TRUE(doc->Get("pos", &pos).ok());
  ASSERT_TRUE(doc->Get("neg", &neg).ok());
  ASSERT_TRUE(doc->Get("nan", &nan).ok());
  EXPECT_EQ(pos, inf);
  EXPECT_EQ(neg, -inf);
  EXPECT_TRUE(std::isnan(nan));
}

TEST(JsonTest, MetricsGaugeKeepsEverySignificantDigit) {
  MetricsRegistry metrics;
  metrics.gauge("process.start_unix_seconds")->Set(1792220000.5);
  std::ostringstream os;
  metrics.WriteJson(os);
  const auto doc = json::Parse(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << os.str();
  const json::Value* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  double v = 0;
  ASSERT_TRUE(gauges->Get("process.start_unix_seconds", &v).ok());
  EXPECT_EQ(v, 1792220000.5);
}

}  // namespace
}  // namespace ldl
