// Answer selection (DESIGN.md §23): a prepared query reads a goal's answers
// through the selector compiled for its shape, or through one compiled per
// run for a shape the plan-cache key cannot tell apart. Either way, the
// answers must be those SelectMatching picks out of the full relation.

#include "engine/query_eval.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/parser.h"
#include "ldl/ldl.h"

namespace ldl {
namespace {

// p/3 and q/2 are right-linear recursions over e, so magic and counting
// both apply to goals binding their first argument. Rows repeat values
// across columns (p(_, 7, 7)) and hold function terms (f(7), f(9)), so
// shapes with repeated variables and function patterns select a strict
// subset of what the distinct-variable shape selects.
constexpr const char* kProgram = R"(
  e(1, 2). e(2, 3). e(3, 4). e(2, 5). e(5, 6).
  e3(3, 7, 7). e3(4, 7, 8). e3(4, f(7), 7). e3(5, 9, 9). e3(6, f(9), 8).
  e3(2, 8, f(9)).
  h(3, f(7)). h(4, g(8)). h(5, f(9)). h(6, 9).
  p(X, Y, Z) <- e3(X, Y, Z).
  p(X, Y, Z) <- e(X, W), p(W, Y, Z).
  q(X, V) <- h(X, V).
  q(X, V) <- e(X, W), q(W, V).
)";

Literal L(const std::string& text) {
  auto lit = ParseLiteral(text);
  EXPECT_TRUE(lit.ok()) << text << ": " << lit.status();
  return *lit;
}

class AnswerSelectorTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(sys_.LoadProgram(kProgram).ok()); }

  /// SelectMatching over the unoptimized all-free evaluation of `goal`'s
  /// predicate.
  std::vector<Tuple> Expected(const Literal& goal) {
    std::vector<Term> free;
    for (size_t i = 0; i < goal.arity(); ++i) {
      free.push_back(Term::MakeVariable("V" + std::to_string(i)));
    }
    auto all = sys_.EvaluateUnoptimized(goal.WithArgs(free),
                                        RecursionMethod::kSemiNaive);
    EXPECT_TRUE(all.ok()) << all.status();
    return CanonicalAnswers(SelectMatching(&all->answers, goal));
  }

  LdlSystem sys_;
};

// Goals grouped by plan-cache shape: the first prepares, every goal of the
// group then runs that preparation. Each group mixes the shape the prepared
// selector serves with repeated variables and function patterns.
const std::vector<std::vector<std::string>> kGroups = {
    // Constant leading.
    {"p(1, Y, Z)", "p(2, Y, Z)", "p(1, Y, Y)", "p(1, f(Y), Z)",
     "p(2, Z, f(Y))", "p(9, Y, Z)"},
    {"q(1, V)", "q(1, f(V))", "q(2, f(V))", "q(3, V)"},
    // Constants in non-leading positions, and bound and free mixed.
    {"p(1, 7, Z)", "p(1, f(7), Z)", "p(2, 8, Z)"},
    {"p(1, Y, 9)", "p(1, Y, 7)", "p(1, f(Y), 7)"},
    {"p(X, 7, Z)", "p(X, 7, X)", "p(X, f(9), Z)"},
    {"p(X, Y, 8)", "p(Y, Y, 8)"},
    {"q(X, f(7))", "q(X, g(8))"},
    // Everything bound.
    {"p(1, 7, 7)", "p(1, 7, 8)", "p(6, 7, 7)"},
};

TEST_F(AnswerSelectorTest, PreparedRunsMatchSelectMatching) {
  for (RecursionMethod method :
       {RecursionMethod::kSemiNaive, RecursionMethod::kMagic,
        RecursionMethod::kCounting}) {
    for (const std::vector<std::string>& group : kGroups) {
      SCOPED_TRACE(std::string(RecursionMethodToString(method)) + " " +
                   group[0]);
      auto prepared =
          PrepareQuery(sys_.program(), L(group[0]), method);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      for (const std::string& text : group) {
        SCOPED_TRACE(text);
        const Literal goal = L(text);
        auto run = RunPrepared(*prepared, sys_.program(), sys_.database(),
                               goal);
        ASSERT_TRUE(run.ok()) << run.status();
        EXPECT_EQ(run->answers.arity(), goal.arity());
        EXPECT_EQ(CanonicalAnswers(run->answers), Expected(goal));
      }
    }
  }
}

// The same through the serving path: every goal after a group's first is a
// plan-cache hit on the first one's entry.
TEST_F(AnswerSelectorTest, PlanCacheHitsMatchSelectMatching) {
  for (const std::vector<std::string>& group : kGroups) {
    for (size_t i = 0; i < group.size(); ++i) {
      SCOPED_TRACE(group[i]);
      auto answer = sys_.Query(group[i]);
      ASSERT_TRUE(answer.ok()) << answer.status();
      if (i > 0) EXPECT_TRUE(answer->plan_cached);
      EXPECT_EQ(CanonicalAnswers(answer->answers), Expected(L(group[i])));
    }
  }
}

/// A row of integers as terms.
Tuple T(const std::vector<int>& values) {
  Tuple out;
  for (int v : values) out.push_back(Term::MakeInt(v));
  return out;
}

Relation Rows(const std::vector<std::vector<int>>& rows) {
  Relation rel("r", rows.empty() ? 0 : rows[0].size());
  for (const std::vector<int>& row : rows) rel.Insert(T(row));
  return rel;
}

std::vector<Value> Params(Relation* rel, const std::vector<int>& values) {
  std::vector<Value> out;
  for (int v : values) out.push_back(rel->store()->Intern(Term::MakeInt(v)));
  return out;
}

// Without an index on the bound columns, a selection scans: it builds no
// index, and picks the rows in row order.
TEST(AnswerSelectorScanTest, ScansWhenNoIndexIsBuilt) {
  Relation rel = Rows({{1, 2}, {2, 3}, {1, 4}, {3, 1}, {1, 5}});
  const AnswerSelector selector = AnswerSelector::Compile(L("r(1, Y)"));
  Relation out("answers", 2, rel.shared_store());
  selector.Select(&rel, Params(&rel, {1}), /*build_index=*/false, &out);
  EXPECT_EQ(out.tuples(),
            (std::vector<Tuple>{T({1, 2}), T({1, 4}), T({1, 5})}));
  EXPECT_FALSE(rel.BuiltIndex({0}).has_value());
  // An index registered but never probed is not built either.
  rel.IndexFor({0});
  EXPECT_FALSE(rel.BuiltIndex({0}).has_value());
}

// With the index already built (as a fixpoint probe leaves it), a
// selection probes it, extending it by the rows added since; the answers
// are the ones a scan gives.
TEST(AnswerSelectorScanTest, ProbesAnIndexAlreadyBuilt) {
  Relation rel = Rows({{1, 2}, {2, 3}});
  const Relation::IndexId index = rel.IndexFor({0});
  size_t indexed = 0;
  rel.Lookup(index, Params(&rel, {1}), &indexed);
  EXPECT_EQ(indexed, 2u);
  ASSERT_EQ(rel.BuiltIndex({0}), index);
  rel.Insert(T({1, 9}));
  rel.Insert(T({4, 1}));

  const AnswerSelector selector = AnswerSelector::Compile(L("r(1, Y)"));
  Relation out("answers", 2, rel.shared_store());
  selector.Select(&rel, Params(&rel, {1}), /*build_index=*/false, &out);
  EXPECT_EQ(out.tuples(), (std::vector<Tuple>{T({1, 2}), T({1, 9})}));
  // The selection extended the index: nothing is left to index.
  indexed = 0;
  rel.Lookup(index, Params(&rel, {4}), &indexed);
  EXPECT_EQ(indexed, 0u);

  Relation copy = Rows({{1, 2}, {2, 3}, {1, 9}, {4, 1}});
  Relation scanned("answers", 2, copy.shared_store());
  selector.Select(&copy, Params(&copy, {1}), /*build_index=*/false,
                  &scanned);
  EXPECT_EQ(scanned.tuples(), out.tuples());
}

// A counting selector reads ans.p rows (level, free arguments): only level
// 0, with the bound arguments put back in their positions.
TEST(AnswerSelectorScanTest, CountingProjectsLevelZero) {
  Relation ans = Rows({{1, 5, 5}, {0, 7, 8}, {0, 7, 7}, {2, 7, 7}});
  const std::vector<Value> params = Params(&ans, {3, 4});
  Relation out("answers", 4, ans.shared_store());
  AnswerSelector::CompileCounting(L("p(Y, 3, Z, 4)"))
      .Select(&ans, params, false, &out);
  EXPECT_EQ(out.tuples(),
            (std::vector<Tuple>{T({7, 3, 8, 4}), T({7, 3, 7, 4})}));
  Relation same("answers", 4, ans.shared_store());
  AnswerSelector::CompileCounting(L("p(Y, 3, Y, 4)"))
      .Select(&ans, params, false, &same);
  EXPECT_EQ(same.tuples(), (std::vector<Tuple>{T({7, 3, 7, 4})}));
}

}  // namespace
}  // namespace ldl
