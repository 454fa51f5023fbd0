// Tests for the structured query log (src/obs/query_log.h): the flat JSONL
// schema (golden file pins key set, order, and number formatting), the
// ToJson -> FromJson round trip, forward compatibility with unknown keys,
// file append/read, and the records LdlSystem::Query writes end to end.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ldl/ldl.h"
#include "obs/query_log.h"

namespace ldl {
namespace {

QueryLogRecord SampleRecord() {
  QueryLogRecord rec;
  rec.program = "examples/tc with \"quotes\"\nand newline.ldl";
  rec.query = "tc(a, Y)";
  rec.adornment = "bf";
  rec.method = "magic";
  rec.plan_fingerprint = "0123456789abcdef";
  rec.stats_epoch = 3;
  rec.plan_epoch = 2;  // a cached plan kept across one refresh
  rec.prune = true;
  rec.plan_cached = true;
  rec.outcome = "ok";
  rec.error = "";
  rec.answer_fingerprint = "7:fedcba9876543210";
  rec.answers = 7;
  rec.budget_bytes = 1 << 20;
  rec.deadline_ms = 12.5;
  rec.peak_bytes = 65536;
  rec.tuples_examined = 4242;
  rec.tuples_derived = 99;
  rec.fixpoint_rounds = 6;
  rec.rule_firings = 18;
  rec.cancel_checks = 5;
  rec.optimize_ms = 0.375;
  rec.execute_ms = 2.25;
  rec.total_ms = 2.625;
  return rec;
}

TEST(QueryLogRecordTest, RoundTripIsIdentity) {
  const QueryLogRecord rec = SampleRecord();
  const std::string json = rec.ToJson();
  auto back = QueryLogRecord::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, rec);
  EXPECT_EQ(back->ToJson(), json) << "serialization is not a fixed point";
}

TEST(QueryLogRecordTest, RoundTripsAwkwardDoubles) {
  QueryLogRecord rec = SampleRecord();
  rec.total_ms = 0.1 + 0.2;  // 0.30000000000000004: needs %.17g
  rec.execute_ms = 1e-9;
  rec.optimize_ms = 12345678.875;
  auto back = QueryLogRecord::FromJson(rec.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->total_ms, rec.total_ms);
  EXPECT_EQ(back->execute_ms, rec.execute_ms);
  EXPECT_EQ(back->optimize_ms, rec.optimize_ms);
}

// Logs written before plan_cached existed read as uncached.
TEST(QueryLogRecordTest, MissingPlanCachedReadsAsFalse) {
  const QueryLogRecord rec = SampleRecord();
  std::string json = rec.ToJson();
  const std::string field = "\"plan_cached\":true,";
  const size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos);
  json.erase(at, field.size());
  auto back = QueryLogRecord::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back->plan_cached);
  QueryLogRecord expected = rec;
  expected.plan_cached = false;
  EXPECT_EQ(*back, expected);
}

// Logs written before plans were kept across refreshes read as planned
// under the epoch they ran in.
TEST(QueryLogRecordTest, MissingPlanEpochReadsAsStatsEpoch) {
  const QueryLogRecord rec = SampleRecord();
  std::string json = rec.ToJson();
  const std::string field = "\"plan_epoch\":2,";
  const size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos);
  json.erase(at, field.size());
  auto back = QueryLogRecord::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->plan_epoch, rec.stats_epoch);
  QueryLogRecord expected = rec;
  expected.plan_epoch = rec.stats_epoch;
  EXPECT_EQ(*back, expected);
}

TEST(QueryLogRecordTest, UnknownKeysAreIgnored) {
  const QueryLogRecord rec = SampleRecord();
  std::string json = rec.ToJson();
  // A future writer added a string field (with tricky content) and a
  // numeric field; this reader must skip both.
  json.insert(1, "\"future_note\":\"has , and } and \\\" inside\",");
  json.insert(json.size() - 1, ",\"future_count\":42");
  auto back = QueryLogRecord::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, rec);
}

TEST(QueryLogRecordTest, MalformedLinesAreRejected) {
  EXPECT_FALSE(QueryLogRecord::FromJson("").ok());
  EXPECT_FALSE(QueryLogRecord::FromJson("not json").ok());
  EXPECT_FALSE(QueryLogRecord::FromJson("{\"query\":").ok());
  EXPECT_FALSE(QueryLogRecord::FromJson("{\"query\":\"unterminated").ok());
  EXPECT_FALSE(QueryLogRecord::FromJson("{\"a\":1} trailing").ok());
  EXPECT_TRUE(QueryLogRecord::FromJson("{}").ok());  // all defaults
}

TEST(QueryLogRecordTest, GoldenFilePinsTheSchema) {
  const std::string path =
      std::string(LDLOPT_SOURCE_DIR) + "/tests/golden/query_log.golden.jsonl";
  auto records = QueryLog::ReadFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);

  // Re-serialization reproduces the committed bytes exactly: key set, key
  // order, and number formatting are all part of the schema contract.
  // Changing ToJson requires regenerating this golden deliberately.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  size_t i = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ASSERT_LT(i, records->size());
    EXPECT_EQ((*records)[i].ToJson(), line) << "golden line " << (i + 1);
    ++i;
  }
  EXPECT_EQ(i, records->size());

  const QueryLogRecord& ok = (*records)[0];
  EXPECT_EQ(ok.query, "anc(john, X)");
  EXPECT_EQ(ok.adornment, "bf");
  EXPECT_EQ(ok.method, "magic");
  EXPECT_EQ(ok.outcome, "ok");
  EXPECT_EQ(ok.answers, 4u);
  EXPECT_EQ(ok.total_ms, 1.75);

  const QueryLogRecord& failed = (*records)[1];
  EXPECT_EQ(failed.outcome, "resource_exhausted");
  EXPECT_TRUE(failed.prune);
  EXPECT_EQ(failed.program, "examples/deep \"tc\".ldl");
  EXPECT_EQ(failed.peak_bytes, 2097152u);
}

TEST(QueryLogTest, StampsDefaultProgram) {
  QueryLog log;
  log.set_default_program("examples/a.ldl");
  QueryLogRecord rec;
  rec.query = "p(X)";
  log.Append(rec);
  QueryLogRecord explicit_rec;
  explicit_rec.program = "examples/b.ldl";
  explicit_rec.query = "q(X)";
  log.Append(explicit_rec);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.snapshot()[0].program, "examples/a.ldl");
  EXPECT_EQ(log.snapshot()[1].program, "examples/b.ldl");
}

TEST(QueryLogTest, AppendWritesReadFileReads) {
  const std::string path =
      ::testing::TempDir() + "/ldl_query_log_test.jsonl";
  std::remove(path.c_str());
  {
    QueryLog log;
    ASSERT_TRUE(log.Open(path).ok());
    QueryLogRecord rec = SampleRecord();
    log.Append(rec);
    rec.query = "tc(b, Y)";
    rec.outcome = "unsafe";
    rec.error = "free variable in head";
    log.Append(rec);
    ASSERT_EQ(log.size(), 2u);
  }
  auto records = QueryLog::ReadFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], SampleRecord());
  EXPECT_EQ((*records)[1].query, "tc(b, Y)");
  EXPECT_EQ((*records)[1].outcome, "unsafe");
  std::remove(path.c_str());
}

// --- end to end through LdlSystem ---

constexpr char kProgram[] = R"(
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
  par(bart, homer). par(lisa, homer). par(homer, abe). par(abe, orville).
)";

TEST(QueryLogIntegrationTest, QueryAppendsCompleteRecord) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kProgram).ok());
  QueryLog log;
  log.set_default_program("inline-test");
  sys.set_query_log(&log);

  auto answer = sys.Query("anc(bart, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(log.size(), 1u);
  const QueryLogRecord rec = log.snapshot()[0];
  EXPECT_EQ(rec.program, "inline-test");
  EXPECT_EQ(rec.query, "anc(bart, Y)");
  EXPECT_EQ(rec.adornment, "bf");
  EXPECT_FALSE(rec.method.empty());
  EXPECT_EQ(rec.plan_fingerprint.size(), 16u);
  EXPECT_EQ(rec.plan_fingerprint, answer->plan.Fingerprint());
  EXPECT_GE(rec.stats_epoch, 1u);
  EXPECT_EQ(rec.outcome, "ok");
  EXPECT_EQ(rec.answers, answer->answers.size());
  EXPECT_FALSE(rec.answer_fingerprint.empty());
  EXPECT_GT(rec.peak_bytes, 0u);
  EXPECT_GT(rec.tuples_examined, 0u);
  EXPECT_GT(rec.cancel_checks, 0u);
  EXPECT_GE(rec.total_ms, 0.0);
  // The record itself round-trips.
  auto back = QueryLogRecord::FromJson(rec.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rec);
}

TEST(QueryLogIntegrationTest, FailedQueriesAreLoggedWithTypedOutcome) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kProgram).ok());
  QueryLog log;
  sys.set_query_log(&log);

  // Unknown predicate: typed failure, still logged.
  auto missing = sys.Query("nothing(X)");
  ASSERT_FALSE(missing.ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.snapshot()[0].outcome, "not_found");
  EXPECT_FALSE(log.snapshot()[0].error.empty());

  // Over-budget recursion: resource_exhausted, still logged.
  OptimizerOptions options;
  options.limits.budget_tuples = 1;
  sys.set_options(options);
  auto exhausted = sys.Query("anc(X, Y)");
  ASSERT_FALSE(exhausted.ok());
  ASSERT_EQ(log.size(), 2u);
  const QueryLogRecord rec = log.snapshot()[1];
  EXPECT_EQ(rec.outcome, "resource_exhausted");
  EXPECT_EQ(rec.budget_bytes, 0u);
  EXPECT_GT(rec.tuples_examined, 0u);
}

TEST(QueryLogIntegrationTest, StatisticsEpochAdvancesOnRefresh) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kProgram).ok());
  QueryLog log;
  sys.set_query_log(&log);
  ASSERT_TRUE(sys.Query("anc(bart, Y)").ok());
  sys.RefreshStatistics();
  ASSERT_TRUE(sys.Query("anc(bart, Y)").ok());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_GT(log.snapshot()[1].stats_epoch, log.snapshot()[0].stats_epoch);
}

}  // namespace
}  // namespace ldl
