// Cost-model calibration (src/obs/calibration.h): q-error pairing of
// estimates with the served run's actuals, the measured-statistics overlay,
// plan pinning, and plan regret.

#include "obs/calibration.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "ast/parser.h"
#include "ldl/ldl.h"
#include "obs/feedback.h"
#include "plan/processing_tree.h"
#include "storage/statistics.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

TEST(QErrorTest, PerfectEstimateIsOne) {
  EXPECT_DOUBLE_EQ(QError(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(QError(1, 1), 1.0);
}

TEST(QErrorTest, SymmetricOverAndUnderEstimation) {
  EXPECT_DOUBLE_EQ(QError(10, 2), 5.0);
  EXPECT_DOUBLE_EQ(QError(2, 10), 5.0);
}

TEST(QErrorTest, SubRowCardinalitiesClampToOne) {
  // An estimate of a quarter row against an empty actual is "right", not
  // infinitely wrong (both sides floor at one row).
  EXPECT_DOUBLE_EQ(QError(0.25, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.5, 4), 4.0);
}

TEST(MeasuredStatisticsTest, SetFindRoundTrip) {
  MeasuredStatistics m;
  EXPECT_TRUE(m.empty());
  PredicateId r = ParseLiteral("r(X, Y)")->predicate();
  m.Set(r, Adornment::AllFree(2), 60);
  ASSERT_NE(m.Find(r, Adornment::AllFree(2)), nullptr);
  EXPECT_DOUBLE_EQ(*m.Find(r, Adornment::AllFree(2)), 60);
  EXPECT_EQ(m.Find(r, Adornment::AllBound(2)), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MeasuredStatisticsTest, AdjustBaseItemInjectsMeasuredTruth) {
  Literal lit = *ParseLiteral("r(X, Y)");
  Statistics stats;
  stats.Set(lit.predicate(), RelationStats{100, {100, 100}});
  ConjunctItem item = MakeBaseItem(lit, stats, CostModelOptions{});
  ASSERT_DOUBLE_EQ(item.base_cardinality, 100);

  MeasuredStatistics m;
  m.Set(lit.predicate(), Adornment::AllFree(2), 10);
  m.AdjustBaseItem(&item);
  EXPECT_DOUBLE_EQ(item.base_cardinality, 10);
  // distinct <= cardinality must keep holding under the override.
  for (double d : item.distinct) EXPECT_LE(d, 10);
  PlanEstimate est = item.estimate(Adornment::AllFree(2), 1.0);
  EXPECT_DOUBLE_EQ(est.card, 10);
}

// ---------------------------------------------------------------------------
// End-to-end: exact statistics. Estimates from a freshly collected catalog
// over an equi-join on tree-shaped data are exact, so every node's q-error
// is 1 and re-optimizing under the measured truth changes nothing.

TEST(CalibrationTest, ExactStatisticsGiveUnitQErrorAndZeroRegret) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("gp(X, Z) <- par(X, Y), par(Y, Z).").ok());
  size_t nodes = testing::MakeTreeParentData(3, 4, sys.database());
  sys.RefreshStatistics();
  auto analyzed =
      sys.AnalyzeCalibrated("gp(" + std::to_string(nodes - 1) + ", Z)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  const CalibrationReport& report = analyzed->report;
  ASSERT_GT(report.sample_count(), 0u);
  EXPECT_NEAR(report.median_q_error(), 1.0, 1e-9);
  EXPECT_NEAR(report.p95_q_error(), 1.0, 1e-9);
  EXPECT_NEAR(report.max_q_error(), 1.0, 1e-9);
  for (const NodeCalibration& nc : report.nodes()) {
    EXPECT_NEAR(nc.q_error, 1.0, 1e-9) << nc.label;
  }
  const RegretAnalysis& regret = report.regret();
  ASSERT_TRUE(regret.computed) << regret.note;
  EXPECT_DOUBLE_EQ(regret.regret(), 0.0);
  EXPECT_DOUBLE_EQ(regret.ratio(), 1.0);
  EXPECT_TRUE(regret.changes.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: a lying catalog. r is claimed tiny (2 rows, it has 60), so
// the optimizer joins r first; the q-error exposes the lie and the regret
// analysis shows hindsight would have started from s.

struct SkewedFixture {
  Result<Program> program = ParseProgram("t(A, C) <- r(A, B), s(B, C).");
  Database db;
  Statistics stats;
  Literal goal = *ParseLiteral("t(A, C)");

  SkewedFixture() {
    for (int i = 0; i < 60; ++i) {
      db.AddFact(Literal::Make(
          "r", {Term::MakeInt(i), Term::MakeInt(i % 3)}));
    }
    for (int j = 0; j < 3; ++j) {
      db.AddFact(Literal::Make("s", {Term::MakeInt(j), Term::MakeInt(j)}));
    }
    stats.Set(ParseLiteral("r(X, Y)")->predicate(), RelationStats{2, {2, 2}});
    stats.Set(ParseLiteral("s(X, Y)")->predicate(), RelationStats{3, {3, 3}});
  }
};

/// The same lie told to a live system: statistics collected while r held
/// 2 rows, then r grown to 60 behind their back (bulk loads through
/// database() deliberately do not refresh).
void LoadStaleSkew(LdlSystem* sys) {
  ASSERT_TRUE(sys->LoadProgram(R"(
    t(A, C) <- r(A, B), s(B, C).
    r(100, 0). r(101, 1).
    s(0, 0). s(1, 1). s(2, 2).
  )").ok());
  ASSERT_EQ(sys->statistics()
                .Get(ParseLiteral("r(X, Y)")->predicate())
                .cardinality,
            2);
  for (int i = 0; i < 58; ++i) {
    sys->database()->AddFact(
        Literal::Make("r", {Term::MakeInt(i), Term::MakeInt(i % 3)}));
  }
}

TEST(CalibrationTest, MisestimationYieldsQErrorAboveOneAndPositiveRegret) {
  LdlSystem sys;
  LoadStaleSkew(&sys);
  auto analyzed = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed->answer.answers.size(), 60u);
  // The lie makes r look free to scan: it goes first.
  ASSERT_EQ(analyzed->answer.plan.rule_orders.at(0),
            (std::vector<size_t>{0, 1}));

  // The r scan was estimated at 2 rows and read 60: q-error 30.
  const CalibrationReport& report = analyzed->report;
  EXPECT_GT(report.max_q_error(), 5.0);
  bool saw_r = false;
  for (const NodeCalibration& nc : report.nodes()) {
    if (nc.kind == "SCAN" && nc.label.find(" r(") != std::string::npos) {
      saw_r = true;
      EXPECT_DOUBLE_EQ(nc.act_rows, 60) << nc.label;
    }
  }
  EXPECT_TRUE(saw_r);

  const RegretAnalysis& regret = report.regret();
  ASSERT_TRUE(regret.computed) << regret.note;
  EXPECT_GT(regret.regret(), 0.0);
  EXPECT_GT(regret.ratio(), 1.0);
  EXPECT_FALSE(regret.changes.empty());
  EXPECT_GE(regret.measured_cost_chosen, regret.measured_cost_hindsight);
}

TEST(CalibrationTest, PinnedConstraintsForceTheGivenOrder) {
  SkewedFixture fx;
  ASSERT_TRUE(fx.program.ok());
  OptimizerOptions options;
  Optimizer optimizer(*fx.program, fx.stats, options);
  auto plan = optimizer.Optimize(fx.goal);
  ASSERT_TRUE(plan.ok());

  PlanConstraints pins;
  pins.rule_orders[0] = {1, 0};  // the order the search rejected
  OptimizerOptions pinned_options;
  pinned_options.pinned = &pins;
  Optimizer pinned_opt(*fx.program, fx.stats, pinned_options);
  auto pinned = pinned_opt.Optimize(fx.goal);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned->safe);
  EXPECT_EQ(pinned->rule_orders.at(0), (std::vector<size_t>{1, 0}));
  // Costing a pinned plan never beats the search over all orders.
  EXPECT_GE(pinned->TotalCost(), plan->TotalCost());
}

// ---------------------------------------------------------------------------
// Export shapes.

TEST(CalibrationTest, JsonAndTextExportsCarryAllSections) {
  LdlSystem sys;
  LoadStaleSkew(&sys);
  auto analyzed = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CalibrationReport& report = analyzed->report;

  std::ostringstream json;
  report.WriteJson(json);
  const std::string j = json.str();
  for (const char* key :
       {"\"query\"", "\"nodes\"", "\"label\"", "\"kind\"", "\"est_rows\"",
        "\"act_rows\"", "\"q_error\"", "\"aggregate\"", "\"median_q_error\"",
        "\"p95_q_error\"", "\"by_kind\"", "\"by_method\"", "\"regret\"",
        "\"measured_cost_chosen\"", "\"measured_cost_hindsight\"",
        "\"ratio\"", "\"changes\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }

  const std::string text = report.ToString();
  EXPECT_NE(text.find("CALIBRATION"), std::string::npos);
  EXPECT_NE(text.find("Q-ERR"), std::string::npos);
  EXPECT_NE(text.find("REGRET"), std::string::npos);
  EXPECT_NE(text.find("aggregate:"), std::string::npos);
}

TEST(CalibrationTest, MetricsExportPopulatesRegistry) {
  LdlSystem sys;
  LoadStaleSkew(&sys);
  auto analyzed = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CalibrationReport& report = analyzed->report;

  MetricsRegistry metrics;
  report.ExportTo(&metrics);
  EXPECT_EQ(metrics.counter_value("calibration.nodes"),
            report.sample_count());
  const Histogram* h = metrics.find_histogram("calibration.q_error");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), report.sample_count());
  report.ExportTo(nullptr);  // must be a no-op, not a crash
}

// ---------------------------------------------------------------------------
// Facade: EXPLAIN ANALYZE carries the new sections and rejects unsafe plans
// before execution.

TEST(CalibrationTest, ExplainAnalyzeIncludesCalibrationAndRegret) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    par(bart, homer).  par(homer, abe).  par(lisa, homer).
  )").ok());
  auto analyzed = sys.AnalyzeCalibrated("anc(bart, Y)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->text.find("CALIBRATION"), std::string::npos);
  EXPECT_NE(analyzed->text.find("REGRET"), std::string::npos);
  EXPECT_GT(analyzed->report.sample_count(), 0u);
  ASSERT_TRUE(analyzed->report.regret().computed)
      << analyzed->report.regret().note;

  auto text = sys.ExplainAnalyze("anc(bart, Y)");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("CALIBRATION"), std::string::npos);
}

TEST(CalibrationTest, ExplainAnalyzeRejectsUnsafePlansBeforeExecution) {
  LdlSystem sys;
  // A comparison with both sides free is not effectively computable under
  // any body order, so the free query form has no safe plan.
  ASSERT_TRUE(sys.LoadProgram("bigger(X, Y) <- X > Y.").ok());
  auto analyzed = sys.ExplainAnalyze("bigger(X, Y)");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kUnsafe);
}

// ---------------------------------------------------------------------------
// The feedback loop closing: planning under the catalog's blended overlay
// must shrink the estimate/actual gap that stale statistics opened.

TEST(CalibrationTest, FeedbackModeReducesMedianQErrorUnderStaleStatistics) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    t(A, C) <- r(A, B), s(B, C).
    r(100, 0). r(101, 1).
    s(0, 0). s(1, 1). s(2, 2).
  )").ok());
  // Collect statistics while r is tiny (2 rows)...
  EXPECT_EQ(sys.statistics().Get(
                ParseLiteral("r(X, Y)")->predicate()).cardinality, 2);
  // ...then grow r 30x behind the statistics' back (bulk loads through
  // database() deliberately do not refresh).
  for (int i = 0; i < 58; ++i) {
    sys.database()->AddFact(
        Literal::Make("r", {Term::MakeInt(i), Term::MakeInt(i % 3)}));
  }

  // Catalog without a drift detector: the epoch must NOT bump, or the
  // second run would re-collect statistics and fix the estimates for the
  // non-feedback side too, leaving nothing to compare.
  StatisticsCatalog catalog;
  sys.set_feedback(&catalog, nullptr);

  auto stale = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  const double median_stale = stale->report.median_q_error();
  // r estimated at 2 rows, measured 60: the gap is real.
  EXPECT_GT(stale->report.max_q_error(), 5.0);
  EXPECT_FALSE(catalog.empty());

  OptimizerOptions options = sys.options();
  options.feedback = true;
  sys.set_options(options);
  auto fed = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  EXPECT_LT(fed->report.median_q_error(), median_stale);
  EXPECT_LT(fed->report.max_q_error(), stale->report.max_q_error());
  sys.set_feedback(nullptr, nullptr);
}

}  // namespace
}  // namespace ldl
