#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "storage/database.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

Program P(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

Literal L(const char* text) {
  auto r = ParseLiteral(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

/// All optimizer tests run with plan verification on: every safe plan the
/// search produces is materialized into a processing tree and checked
/// against the §4/§5 structural invariants (src/analysis/plan_verifier.h).
OptimizerOptions Verifying(OptimizerOptions options = {}) {
  options.verify_plans = true;
  return options;
}

constexpr const char* kSgRules = R"(
  sg(X, Y) <- flat(X, Y).
  sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
)";

Statistics SgStats(double nodes) {
  Statistics stats;
  stats.Set({"up", 2}, {nodes, {nodes, nodes / 3}});
  stats.Set({"dn", 2}, {nodes, {nodes / 3, nodes}});
  stats.Set({"flat", 2}, {nodes / 10, {nodes / 10, nodes / 10}});
  return stats;
}

TEST(OptimizerTest, NonRecursiveReordersBySelectivity) {
  Program p = P("q(X, Z) <- huge(X, Y), tiny(Y, Z).");
  Statistics stats;
  stats.Set({"huge", 2}, {100000.0, {100000.0, 300.0}});
  stats.Set({"tiny", 2}, {10.0, {10.0, 10.0}});
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("q(X, Z)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe);
  // tiny must come first under an all-free query.
  ASSERT_EQ(plan->rule_orders.count(0), 1u);
  EXPECT_EQ(plan->rule_orders.at(0), (std::vector<size_t>{1, 0}));
}

TEST(OptimizerTest, QuerySpecificPlans) {
  // The paper's central point (section 2): p(c, Y) and p(X, Y) get
  // different plans.
  Program p = P("q(X, Z) <- big1(X, Y), big2(Y, Z).");
  Statistics stats;
  stats.Set({"big1", 2}, {50000.0, {5000.0, 100.0}});
  stats.Set({"big2", 2}, {40000.0, {100.0, 4000.0}});
  Optimizer opt_free(p, stats, Verifying());
  Optimizer opt_bound(p, stats, Verifying());
  auto free_plan = opt_free.Optimize(L("q(X, Z)"));
  auto bound_plan = opt_bound.Optimize(L("q(1, Z)"));
  ASSERT_TRUE(free_plan.ok() && bound_plan.ok());
  // Bound query must be strictly cheaper.
  EXPECT_LT(bound_plan->TotalCost(), free_plan->TotalCost());
  EXPECT_EQ(bound_plan->adornment.ToString(), "bf");
  EXPECT_EQ(free_plan->adornment.ToString(), "ff");
  // Bound query starts from the bound big1 (probe on X).
  EXPECT_EQ(bound_plan->rule_orders.at(0).front(), 0u);
}

TEST(OptimizerTest, BoundRecursiveQueryPicksMagicOrCounting) {
  Program p = P(kSgRules);
  Statistics stats = SgStats(10000.0);
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("sg(5, Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe);
  EXPECT_TRUE(plan->top_method == RecursionMethod::kMagic ||
              plan->top_method == RecursionMethod::kCounting)
      << RecursionMethodToString(plan->top_method);
}

TEST(OptimizerTest, FreeRecursiveQueryPicksSemiNaive) {
  Program p = P(kSgRules);
  Statistics stats = SgStats(10000.0);
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("sg(X, Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe);
  EXPECT_EQ(plan->top_method, RecursionMethod::kSemiNaive);
}

TEST(OptimizerTest, CountingPreferredOverMagicWhenApplicable) {
  Program p = P(kSgRules);
  Statistics stats = SgStats(10000.0);
  OptimizerOptions with_counting;
  OptimizerOptions without_counting;
  without_counting.enable_counting = false;
  Optimizer opt1(p, stats, Verifying(with_counting));
  Optimizer opt2(p, stats, Verifying(without_counting));
  auto plan1 = opt1.Optimize(L("sg(5, Y)"));
  auto plan2 = opt2.Optimize(L("sg(5, Y)"));
  ASSERT_TRUE(plan1.ok() && plan2.ok());
  EXPECT_EQ(plan1->top_method, RecursionMethod::kCounting);
  EXPECT_EQ(plan2->top_method, RecursionMethod::kMagic);
  EXPECT_LE(plan1->TotalCost(), plan2->TotalCost());
}

TEST(OptimizerTest, NonLinearCliqueSkipsCounting) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- tc(X, Z), tc(Z, Y).
  )");
  Statistics stats;
  stats.Set({"edge", 2}, {1000.0, {500.0, 500.0}});
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("tc(1, Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe);
  EXPECT_NE(plan->top_method, RecursionMethod::kCounting);
}

TEST(OptimizerTest, MemoizationOptimizesEachBindingOnce) {
  // c references a twice under the same binding: the OR subtree for a must
  // be optimized once (Figure 7-1's "exactly ONCE for each binding").
  Program p = P(R"(
    a(X, Y) <- base1(X, Y).
    b(X, Y) <- a(X, Y), base2(Y).
    c(X) <- a(X, Y), b(X, Z).
  )");
  Statistics stats;
  stats.Set({"base1", 2}, {1000.0, {100.0, 100.0}});
  stats.Set({"base2", 1}, {50.0, {50.0}});

  OptimizerOptions memo_on;
  Optimizer opt(p, stats, Verifying(memo_on));
  auto plan = opt.Optimize(L("c(X)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->search_stats.memo_hits, 0u);

  OptimizerOptions memo_off;
  memo_off.memoize = false;
  Optimizer opt2(p, stats, Verifying(memo_off));
  auto plan2 = opt2.Optimize(L("c(X)"));
  ASSERT_TRUE(plan2.ok()) << plan2.status();
  // Same plan quality, more work.
  EXPECT_NEAR(plan->TotalCost(), plan2->TotalCost(),
              1e-9 * plan->TotalCost());
  EXPECT_GT(plan2->search_stats.subplans_optimized,
            plan->search_stats.subplans_optimized);
}

TEST(OptimizerTest, SearchStatsResetBetweenOptimizeCalls) {
  // One long-lived Optimizer (NR-OPT keeps its memo across queries), two
  // Optimize calls: each call's search_stats must describe that call only.
  // A fully memoized repeat reports zero fresh work, not the first call's
  // totals accumulated twice.
  Program p = P("q(X, Z) <- r1(X, Y), r2(Y, Z).");
  Statistics stats;
  stats.Set({"r1", 2}, {1000.0, {500.0, 200.0}});
  stats.Set({"r2", 2}, {50.0, {50.0, 50.0}});
  Optimizer opt(p, stats, {});
  ASSERT_TRUE(opt.Optimize(L("q(1, Z)")).ok());
  const PlanSearchStats first = opt.search_stats();
  EXPECT_GT(first.subplans_optimized, 0u);
  EXPECT_GT(first.cost_evaluations, 0u);

  auto repeat = opt.Optimize(L("q(1, Z)"));
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  const PlanSearchStats second = opt.search_stats();
  EXPECT_EQ(second.subplans_optimized, 0u);
  EXPECT_EQ(second.memo_misses, 0u);
  EXPECT_EQ(second.cost_evaluations, 0u);
  EXPECT_GT(second.memo_hits, 0u);  // the goal itself answers from memo
}

TEST(OptimizerTest, UnsafeQueryGetsInfiniteCostAndDiagnostic) {
  Program p = P("bigger(X, Y) <- X > Y.");
  Statistics stats;
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("bigger(X, Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->safe);
  EXPECT_FALSE(plan->unsafe_reason.empty());
  EXPECT_EQ(plan->TotalCost(), kInfiniteCost);
}

TEST(OptimizerTest, BoundQueryOnComparisonRuleIsSafe) {
  // Same rule, fully bound query form: now computable.
  Program p = P("bigger(X, Y) <- X > Y.");
  Statistics stats;
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("bigger(4, 2)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->safe) << plan->unsafe_reason;
}

TEST(OptimizerTest, ReorderingRescuesSafety) {
  // Textual order is unsafe (Y = X + 1 before r binds X); the optimizer
  // must find the safe permutation rather than reject.
  Program p = P("q(Y) <- Y = X + 1, r(X).");
  Statistics stats;
  stats.Set({"r", 1}, {100.0, {100.0}});
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("q(Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe) << plan->unsafe_reason;
  EXPECT_EQ(plan->rule_orders.at(0), (std::vector<size_t>{1, 0}));
}

TEST(OptimizerTest, ArithmeticRecursionRejectedAsUnsafe) {
  Program p = P(R"(
    nat(X) <- zero(X).
    nat(Y) <- nat(X), Y = X + 1.
  )");
  Statistics stats;
  stats.Set({"zero", 1}, {1.0, {1.0}});
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("nat(X)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->safe);
  EXPECT_NE(plan->unsafe_reason.find("well-founded"), std::string::npos)
      << plan->unsafe_reason;
}

TEST(OptimizerTest, ListConsumingRecursionIsSafeWhenBound) {
  Program p = P(R"(
    member(X, [X | T]).
    member(X, [H | T]) <- member(X, T).
  )");
  Statistics stats;
  Optimizer opt(p, stats, Verifying());
  // member(X, [1,2,3])?: bound second argument decreases structurally.
  auto bound_plan = opt.Optimize(L("member(X, [1, 2, 3])"));
  ASSERT_TRUE(bound_plan.ok()) << bound_plan.status();
  EXPECT_TRUE(bound_plan->safe) << bound_plan->unsafe_reason;
  // member(X, T)? builds ever-larger lists bottom-up: unsafe.
  Optimizer opt2(p, stats, Verifying());
  auto free_plan = opt2.Optimize(L("member(X, T)"));
  ASSERT_TRUE(free_plan.ok()) << free_plan.status();
  EXPECT_FALSE(free_plan->safe);
}

TEST(OptimizerTest, StrategiesAgreeOnSmallPrograms) {
  Program p = P(R"(
    q(X, W) <- r1(X, Y), r2(Y, Z), r3(Z, W).
  )");
  Statistics stats;
  stats.Set({"r1", 2}, {5000.0, {500.0, 100.0}});
  stats.Set({"r2", 2}, {100.0, {100.0, 80.0}});
  stats.Set({"r3", 2}, {20000.0, {80.0, 20000.0}});
  double best_cost = 0;
  for (auto strategy :
       {SearchStrategy::kExhaustive, SearchStrategy::kDynamicProgramming}) {
    OptimizerOptions options;
    options.strategy = strategy;
    Optimizer opt(p, stats, Verifying(options));
    auto plan = opt.Optimize(L("q(1, W)"));
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_TRUE(plan->safe);
    if (best_cost == 0) {
      best_cost = plan->TotalCost();
    } else {
      EXPECT_NEAR(plan->TotalCost(), best_cost, 1e-6 * best_cost);
    }
  }
}

TEST(OptimizerTest, LexicographicBaselineIsNoBetterThanExhaustive) {
  Program p = P("q(X, Z) <- huge(X, Y), tiny(Y, Z).");
  Statistics stats;
  stats.Set({"huge", 2}, {100000.0, {100000.0, 300.0}});
  stats.Set({"tiny", 2}, {10.0, {10.0, 10.0}});
  OptimizerOptions lex;
  lex.strategy = SearchStrategy::kLexicographic;
  Optimizer opt_lex(p, stats, Verifying(lex));
  Optimizer opt_ex(p, stats, Verifying());
  auto plan_lex = opt_lex.Optimize(L("q(X, Z)"));
  auto plan_ex = opt_ex.Optimize(L("q(X, Z)"));
  ASSERT_TRUE(plan_lex.ok() && plan_ex.ok());
  EXPECT_GT(plan_lex->TotalCost(), plan_ex->TotalCost());
}

TEST(OptimizerTest, ExplainMentionsMethodAndOrders) {
  Program p = P(kSgRules);
  Statistics stats = SgStats(1000.0);
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("sg(5, Y)"));
  ASSERT_TRUE(plan.ok());
  std::string text = plan->Explain(p);
  EXPECT_NE(text.find("QUERY"), std::string::npos);
  EXPECT_NE(text.find("CLIQUE"), std::string::npos);
  EXPECT_NE(text.find("RULE"), std::string::npos);
}

// Magic executes the per-adornment orders in QueryPlan::sips, which can
// differ from rule_orders: the plan's identity must cover them.
TEST(OptimizerTest, FingerprintCoversPerAdornmentSips) {
  Program p = P(kSgRules);
  Statistics stats = SgStats(1000.0);
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("sg(5, Y)"));
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->sips.adorned_orders().empty());
  // The last entry belongs to the three-literal recursive rule.
  const auto& [key, order] = *plan->sips.adorned_orders().rbegin();
  auto adn = Adornment::FromString(key.second);
  ASSERT_TRUE(adn.ok());
  std::vector<size_t> reversed(order.rbegin(), order.rend());
  ASSERT_NE(reversed, order);
  QueryPlan changed = *plan;
  changed.sips.SetOrderForAdornment(key.first, *adn, reversed);
  EXPECT_NE(changed.Fingerprint(), plan->Fingerprint());
}

TEST(OptimizerTest, DeeperRecursionAssumptionRaisesCost) {
  Program p = P(kSgRules);
  Statistics stats = SgStats(10000.0);
  OptimizerOptions shallow, deep;
  shallow.cost.assumed_recursion_depth = 4;
  deep.cost.assumed_recursion_depth = 16;
  Optimizer opt1(p, stats, Verifying(shallow));
  Optimizer opt2(p, stats, Verifying(deep));
  auto plan1 = opt1.Optimize(L("sg(X, Y)"));
  auto plan2 = opt2.Optimize(L("sg(X, Y)"));
  ASSERT_TRUE(plan1.ok() && plan2.ok());
  EXPECT_LE(plan1->TotalCost(), plan2->TotalCost());
}

TEST(OptimizerTest, MutualRecursionEndToEnd) {
  Program p = P(R"(
    even(X) <- zero(X).
    even(X) <- succ(Y, X), odd(Y).
    odd(X) <- succ(Y, X), even(Y).
  )");
  Statistics stats;
  stats.Set({"zero", 1}, {1.0, {1.0}});
  stats.Set({"succ", 2}, {100.0, {100.0, 100.0}});
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("even(40)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe) << plan->unsafe_reason;
  // Mutual cliques are not counting-applicable; magic or seminaive only.
  EXPECT_NE(plan->top_method, RecursionMethod::kCounting);
  // Orders chosen for all three rules.
  EXPECT_EQ(plan->rule_orders.size(), 3u);
}

TEST(OptimizerTest, CliqueBelowNonRecursivePredicate) {
  // A nonrecursive wrapper over a recursive clique: NR-OPT and OPT compose.
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
    related(X, Y) <- tc(X, Y), label(Y).
  )");
  Statistics stats;
  stats.Set({"edge", 2}, {5000.0, {1000.0, 1000.0}});
  stats.Set({"label", 1}, {10.0, {10.0}});
  Optimizer opt(p, stats, Verifying());
  auto plan = opt.Optimize(L("related(3, Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->safe);
  // The clique decision is recorded even though the goal is nonrecursive.
  EXPECT_EQ(plan->clique_methods.size(), 1u);
  EXPECT_GT(plan->TotalCost(), 0.0);
}

}  // namespace
}  // namespace ldl
