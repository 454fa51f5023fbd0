// Tests for the EXPLAIN / EXPLAIN ANALYZE renderer (plan/explain.h) and
// LdlSystem::ExplainAnalyze: golden output for the estimate-only view over
// nonrecursive and recursive (CC) plans, and the served run's actuals next
// to the estimates.

#include "plan/explain.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "ast/parser.h"
#include "base/strings.h"
#include "ldl/ldl.h"
#include "obs/calibration.h"
#include "optimizer/optimizer.h"
#include "plan/processing_tree.h"

#ifndef LDLOPT_SOURCE_DIR
#error "tests/CMakeLists.txt must define LDLOPT_SOURCE_DIR"
#endif

namespace ldl {
namespace {

constexpr const char* kJoinProgram = R"(
  grandparent(X, Z) <- parent(X, Y), parent(Y, Z).
  parent(abe, homer).
  parent(homer, bart).
  parent(homer, lisa).
  parent(marge, bart).
)";

constexpr const char* kAncestorProgram = R"(
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
  par(bart, homer).
  par(homer, abe).
  par(abe, orville).
)";

/// Builds the annotated processing tree the way LdlSystem::ExplainTree does
/// (minus the projection-pushing rewrite, for byte-stable goldens).
std::unique_ptr<PlanNode> AnnotatedTree(LdlSystem* sys,
                                        const std::string& goal_text) {
  auto goal = ParseLiteral(goal_text);
  EXPECT_TRUE(goal.ok()) << goal.status().ToString();
  auto tree = BuildProcessingTree(sys->program(), *goal);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  Optimizer optimizer(sys->program(), sys->statistics(), {});
  Status annotated = optimizer.AnnotateTree(tree->get());
  EXPECT_TRUE(annotated.ok()) << annotated.ToString();
  return std::move(*tree);
}

TEST(ExplainTest, GoldenNonrecursiveJoin) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kJoinProgram).ok());
  std::unique_ptr<PlanNode> tree = AnnotatedTree(&sys, "grandparent(abe, Z)");
  std::string text = RenderExplain(*tree);
  EXPECT_EQ(text,
            "PLAN                                                    "
            "EST COST  EST ROWS\n"
            "--------------------------------------------------------"
            "------------------\n"
            "OR [mat] union grandparent(abe, Z) :bf                   "
            "6.26667   1.77778\n"
            "  AND [mat] nested-loop grandparent(X, Z) :bf (rule 0)   "
            "6.26667   1.77778\n"
            "    SCAN [mat] index-scan parent(X, Y) :bf               "
            "2.53333   1.33333\n"
            "    SCAN [mat] index-scan parent(Y, Z) :bf               "
            "2.53333   1.33333\n");
}

TEST(ExplainTest, GoldenRecursiveCc) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kAncestorProgram).ok());
  std::unique_ptr<PlanNode> tree = AnnotatedTree(&sys, "anc(bart, Y)");
  std::string text = RenderExplain(*tree);
  EXPECT_EQ(text,
            "PLAN                                         EST COST  EST ROWS\n"
            "---------------------------------------------------------------\n"
            "CC [pipe] counting anc(bart, Y) :bf {anc/2}       9.3         3\n"
            "  SCAN [mat] scan par(X, Y) :ff                     3         3\n"
            "  SCAN [mat] scan par(X, Z) :ff                     3         3\n");
}

TEST(ExplainTest, AnalyzePopulatesActualColumns) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kJoinProgram).ok());
  std::unique_ptr<PlanNode> tree = AnnotatedTree(&sys, "grandparent(abe, Z)");

  // Actuals keyed by (predicate, binding), as a served run reports them.
  MeasuredStatistics actuals;
  actuals.Set(tree->goal.predicate(), tree->binding, 2);
  const std::string text =
      RenderExplain(*tree, [&actuals](const PlanNode& node) {
        return NodeActualRows(node, actuals);
      });
  EXPECT_EQ(text,
            "PLAN                                                    "
            "EST COST  EST ROWS  ROWS\n"
            "--------------------------------------------------------"
            "------------------------\n"
            "OR [mat] union grandparent(abe, Z) :bf                   "
            "6.26667   1.77778     2\n"
            "  AND [mat] nested-loop grandparent(X, Z) :bf (rule 0)   "
            "6.26667   1.77778     -\n"
            "    SCAN [mat] index-scan parent(X, Y) :bf               "
            "2.53333   1.33333     -\n"
            "    SCAN [mat] index-scan parent(Y, Z) :bf               "
            "2.53333   1.33333     -\n");

  // Through the facade: the served run's 2 answers (abe -> homer ->
  // {bart, lisa}) head the footer.
  auto analyzed = sys.AnalyzeCalibrated("grandparent(abe, Z)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed->answer.answers.size(), 2u);
  EXPECT_NE(analyzed->text.find("ROWS"), std::string::npos);
  EXPECT_NE(analyzed->text.find("Answers: 2 rows"), std::string::npos);
}

TEST(ExplainTest, AnalyzeRecursiveCcMeasuresFixpoint) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kAncestorProgram).ok());
  auto analyzed = sys.AnalyzeCalibrated("anc(bart, Y)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed->answer.answers.size(), 3u);  // homer, abe, orville
  EXPECT_GT(analyzed->answer.exec_stats.iterations, 0u);
  EXPECT_GT(analyzed->answer.exec_stats.counters.tuples_examined, 0u);

  // The CC root pairs its estimate with the 3 rows of the fixpoint; the
  // free par scans with the 3-row relation.
  ASSERT_FALSE(analyzed->report.nodes().empty());
  const NodeCalibration& root = analyzed->report.nodes().front();
  EXPECT_EQ(root.kind, "CC");
  EXPECT_DOUBLE_EQ(root.act_rows, 3);
  for (const NodeCalibration& nc : analyzed->report.nodes()) {
    if (nc.kind == "SCAN") {
      EXPECT_DOUBLE_EQ(nc.act_rows, 3) << nc.label;
    }
  }
}

TEST(ExplainTest, LdlSystemExplainAnalyzeEndToEnd) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kAncestorProgram).ok());
  auto text = sys.ExplainAnalyze("anc(bart, Y)");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("EST COST"), std::string::npos);
  EXPECT_NE(text->find("ROWS"), std::string::npos);
  EXPECT_NE(text->find("CC"), std::string::npos);
  EXPECT_NE(text->find("Answers: 3 rows"), std::string::npos);
  EXPECT_NE(text->find("tuples examined"), std::string::npos);
  EXPECT_NE(text->find("fixpoint rounds"), std::string::npos);
  EXPECT_NE(text->find("ms execute"), std::string::npos);
}

// --- ANALYZE is the served run ---------------------------------------------

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::filesystem::path kExamples =
    std::filesystem::path(LDLOPT_SOURCE_DIR) / "examples";

TEST(ExplainTest, AnalyzeMatchesQueryOnEveryExampleGoal) {
  size_t goals = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kExamples)) {
    if (entry.path().extension() != ".ldl") continue;
    const std::string text = ReadFile(entry.path());
    LdlSystem queried;
    LdlSystem analyzed;
    ASSERT_TRUE(queried.LoadProgram(text).ok()) << entry.path();
    ASSERT_TRUE(analyzed.LoadProgram(text).ok()) << entry.path();
    for (const QueryForm& form : queried.pending_queries()) {
      const std::string goal = form.goal.ToString();
      auto answer = queried.Query(goal);
      ASSERT_TRUE(answer.ok()) << goal << ": " << answer.status();
      auto analysis = analyzed.AnalyzeCalibrated(goal);
      ASSERT_TRUE(analysis.ok()) << goal << ": " << analysis.status();
      const size_t rows = answer->answers.size();
      const size_t examined = answer->exec_stats.counters.tuples_examined;
      EXPECT_EQ(analysis->answer.answers.size(), rows) << goal;
      EXPECT_EQ(analysis->answer.exec_stats.counters.tuples_examined,
                examined)
          << goal;
      EXPECT_NE(analysis->text.find(StrCat("Answers: ", rows, " rows")),
                std::string::npos)
          << analysis->text;
      EXPECT_NE(analysis->text.find(
                    StrCat("Totals: ", examined, " tuples examined")),
                std::string::npos)
          << analysis->text;
      ++goals;
    }
  }
  EXPECT_GE(goals, 8u);
}

TEST(ExplainTest, AnalyzeHonoursPerQueryLimits) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(ReadFile(kExamples / "ancestor.ldl")).ok());
  OptimizerOptions options;
  options.limits.budget_tuples = 5;
  sys.set_options(options);
  auto queried = sys.Query("anc(bart, Y)");
  ASSERT_FALSE(queried.ok());
  EXPECT_EQ(queried.status().code(), StatusCode::kResourceExhausted);
  auto analyzed = sys.ExplainAnalyze("anc(bart, Y)");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kResourceExhausted)
      << analyzed.status().ToString();

  // Already expired at the first check-point, on any machine.
  options.limits = {};
  options.limits.deadline_ms = 1e-9;
  sys.set_options(options);
  queried = sys.Query("anc(bart, Y)");
  ASSERT_FALSE(queried.ok());
  EXPECT_EQ(queried.status().code(), StatusCode::kDeadlineExceeded);
  analyzed = sys.ExplainAnalyze("anc(bart, Y)");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kDeadlineExceeded)
      << analyzed.status().ToString();
}

TEST(ExplainTest, MagicCcRowsAreRowsPerMagicBinding) {
  OptimizerOptions options;
  options.enable_counting = false;
  LdlSystem sys(options);
  ASSERT_TRUE(sys.LoadProgram(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, U), sg(U, V), down(V, Y).
    up(a, b). up(a, c). up(b, d).
    flat(b, b1). flat(c, c1). flat(d, d1).
    down(b1, y). down(c1, z). down(d1, x). down(x, w).
  )").ok());
  // Unreachable down facts: they make joining up with down before the
  // recursive call expensive, so the plan passes sg the bf binding.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(sys.database()
                    ->AddFact(Literal::Make("down", {Term::MakeInt(1000 + i),
                                                     Term::MakeInt(i)}))
                    .ok());
  }
  auto analyzed = sys.AnalyzeCalibrated("sg(a, Y)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->answer.plan.top_method, RecursionMethod::kMagic);
  ASSERT_EQ(analyzed->answer.plan.rule_orders.at(1),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(analyzed->answer.answers.size(), 3u);  // y, w, z

  // magic.sg.bf = {a, b, c, d}: the goal's constant and everything up
  // reaches from it. sg.bf = {(b, b1), (c, c1), (d, d1), (b, x), (a, y),
  // (a, w), (a, z)}: sg for exactly those first arguments. Rows per
  // binding: 7 / 4.
  size_t sg_nodes = 0;
  for (const NodeCalibration& nc : analyzed->report.nodes()) {
    if ((nc.kind == "OR" || nc.kind == "CC") &&
        nc.label.find(" sg(") != std::string::npos) {
      EXPECT_DOUBLE_EQ(nc.act_rows, 7.0 / 4.0) << nc.label;
      ++sg_nodes;
    }
  }
  EXPECT_GE(sg_nodes, 1u);
  EXPECT_NE(analyzed->text.find("1.75"), std::string::npos)
      << analyzed->text;
}

TEST(ExplainTest, ExplainAnalyzeRejectsMalformedGoal) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kJoinProgram).ok());
  auto text = sys.ExplainAnalyze("not a goal ((");
  EXPECT_FALSE(text.ok());
}

}  // namespace
}  // namespace ldl
