#include "engine/rule_eval.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "ast/parser.h"
#include "base/strings.h"
#include "engine/fixpoint.h"
#include "engine/query_eval.h"

namespace ldl {
namespace {

// Pins of the rule evaluator's observable behaviour: answers in row order,
// the exact work counters and the exact text of every Unsafe error. The
// literals were recorded on the engine that still bound variables through
// a string-keyed substitution with a trail, so they hold any later binding
// representation to the same answers, the same work and the same errors.

/// The rows of `rel` in row order; a real is marked with a trailing `r`,
/// so 1.0 and 1 read differently.
std::string Rows(const Relation* rel) {
  if (rel == nullptr) return "<none>";
  std::string out;
  for (const Tuple& t : rel->tuples()) {
    if (!out.empty()) out += " ";
    out += "(";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ", ";
      out += t[i].ToString();
      if (t[i].kind() == TermKind::kReal) out += "r";
    }
    out += ")";
  }
  return out;
}

std::string Work(const FixpointStats& stats) {
  const EvalCounters& c = stats.counters;
  return StrCat("examined=", c.tuples_examined,
                " derivations=", c.derivations, " inserts=", c.inserts,
                " firings=", c.rule_firings,
                " dedup_probes=", c.dedup_probes,
                " index_probes=", c.index_probes,
                " delta_rows=", c.delta_rows,
                " iterations=", stats.iterations);
}

/// Parses `text` (facts and rules), loads the facts into a base database,
/// builds the rules' semi-naive schedule with `orders` as the rule orders
/// and runs it. Returns "<rows of `pred`> | <work>", or the error status.
std::string Eval(const char* text, const PredicateId& pred,
                 std::unordered_map<size_t, std::vector<size_t>> orders = {}) {
  auto parsed = ParseProgram(text);
  if (!parsed.ok()) return parsed.status().ToString();
  Database base;
  for (const Literal& fact : parsed->facts()) {
    Status st = base.AddFact(fact);
    if (!st.ok()) return st.ToString();
  }
  auto schedule = FixpointSchedule::Build(
      std::move(parsed).value(), RecursionMethod::kSemiNaive, orders);
  if (!schedule.ok()) return schedule.status().ToString();
  Database scratch;
  FixpointStats stats;
  Status st = schedule->Run(&base, &scratch, &stats);
  if (!st.ok()) return st.ToString();
  return StrCat(Rows(scratch.Find(pred)), " | ", Work(stats));
}

/// Answers of `goal` over the program `text`, in row order.
std::string Query(const char* text, const char* goal) {
  auto parsed = ParseProgram(text);
  if (!parsed.ok()) return parsed.status().ToString();
  auto lit = ParseLiteral(goal);
  if (!lit.ok()) return lit.status().ToString();
  Database base;
  for (const Literal& fact : parsed->facts()) {
    Status st = base.AddFact(fact);
    if (!st.ok()) return st.ToString();
  }
  auto result =
      EvaluateQuery(*parsed, &base, *lit, RecursionMethod::kSemiNaive, {});
  if (!result.ok()) return result.status().ToString();
  return Rows(&result->answers);
}

TEST(RuleEvalTest, RepeatedVariableComparesNumbersByValue) {
  // The second X reads the value the first one wrote: 1 matches 1.0 and
  // the kept value is the first column's.
  EXPECT_EQ(Eval(R"(
                r(1, 1.0). r(1, 2). r(2.0, 2). r(3, 3).
                p(X) <- r(X, X).
              )",
                 {"p", 1}),
            "(1) (2r) (3) | examined=4 derivations=3 inserts=3 firings=1 "
            "dedup_probes=3 index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, ConstantsInBodyLiterals) {
  // A constant argument is a key column (exact index lookup); a constant
  // inside a function pattern is matched, so 3 matches 3.0 there.
  EXPECT_EQ(Eval(R"(
                r(1, a). r(1.0, b). r(2, c).
                q(f(1, 3)). q(f(2, 3.0)). q(f(4, 5)). q(g(5, 3)).
                p(Y) <- r(1, Y).
                p(X) <- q(f(X, 3)).
              )",
                 {"p", 1}),
            "(a) (1) (2) | examined=5 derivations=3 inserts=3 firings=2 "
            "dedup_probes=3 index_probes=1 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, PartiallyBoundFunctionPattern) {
  // X is bound by s before q is reached, so q's only column is a match
  // pattern: functor, arity, a read of X and a write of Y.
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                q(f(1, a)). q(f(2, b)). q(f(1.0, c)). q(g(1, d)). q(f(1)).
                q(f(3, e)).
                p(X, Y) <- s(X), q(f(X, Y)).
              )",
                 {"p", 2}),
            "(1, a) (1, c) (2, b) | examined=14 derivations=3 inserts=3 "
            "firings=1 dedup_probes=3 index_probes=0 delta_rows=0 "
            "iterations=0");
}

TEST(RuleEvalTest, ListDestructuring) {
  EXPECT_EQ(Eval(R"(
                l([1, 2, 3]). l([]). l([4]). l(x).
                p(H, T) <- l([H | T]).
              )",
                 {"p", 2}),
            "(1, [2, 3]) (4, []) | examined=4 derivations=2 inserts=2 "
            "firings=1 dedup_probes=2 index_probes=0 delta_rows=0 "
            "iterations=0");
}

TEST(RuleEvalTest, EqBindsInBothDirections) {
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                p(X, Y) <- s(X), Y = X + 1.
                p(X, Y) <- s(X), X * 10 = Y.
                p(X, Y) <- s(X), Y = X, X = 1.0.
              )",
                 {"p", 2}),
            "(1, 2) (2, 3) (1, 10) (2, 20) (1, 1) | examined=6 "
            "derivations=5 inserts=5 firings=3 dedup_probes=5 "
            "index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, EqDestructuresStructurally) {
  EXPECT_EQ(Eval(R"(
                c(f(1, 2)). c(g(3, 4)). c(f(5)). c(f(6, 6)). c(f(7, 8)).
                p(A, B) <- c(C), f(A, B) = C.
                p(A, A) <- c(C), C = f(A, A).
              )",
                 {"p", 2}),
            "(1, 2) (6, 6) (7, 8) | examined=10 derivations=4 inserts=3 "
            "firings=2 dedup_probes=4 index_probes=0 delta_rows=0 "
            "iterations=0");
}

TEST(RuleEvalTest, DivisionByZeroInEqFails) {
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                p(X) <- s(Y), X = Y / 0.
                p(X) <- s(X), X / 0 = 1.
                p(X) <- s(X), X mod 0 < 1.
              )",
                 {"p", 1}),
            " | examined=6 derivations=0 inserts=0 firings=3 dedup_probes=0 "
            "index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, HeadArithmeticFolds) {
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                p(X + 1, f(X * 2)) <- s(X).
              )",
                 {"p", 2}),
            "(2, f(2)) (3, f(4)) | examined=2 derivations=2 inserts=2 "
            "firings=1 dedup_probes=2 index_probes=0 delta_rows=0 "
            "iterations=0");
}

TEST(RuleEvalTest, HeadDivisionByZeroCountsDerivationWithoutProbe) {
  // Each derivation is counted; the failed fold emits no tuple, so no
  // dedup probe is made.
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                p(X / 0) <- s(X).
              )",
                 {"p", 1}),
            " | examined=2 derivations=2 inserts=0 firings=1 dedup_probes=0 "
            "index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, StoredArithmeticValuesFold) {
  // A stored value may itself be an arithmetic term: heads and ground
  // builtin sides fold it.
  EXPECT_EQ(Eval(R"(
                w(1 + 2). w(a).
                p(B) <- w(B).
                q(B) <- w(B), B = 3.
              )",
                 {"p", 1}),
            "(3) (a) | examined=4 derivations=3 inserts=3 firings=2 "
            "dedup_probes=3 index_probes=0 delta_rows=0 iterations=0");
  EXPECT_EQ(Eval(R"(
                w(1 + 2). w(a).
                q(B) <- w(B), B = 3.
              )",
                 {"q", 1}),
            "(3) | examined=2 derivations=1 inserts=1 firings=1 "
            "dedup_probes=1 index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, Negation) {
  EXPECT_EQ(Eval(R"(
                s(1). s(2). s(3). t(2). u(1, 3).
                p(X) <- s(X), not t(X).
                p(X) <- s(X), not u(1, X).
              )",
                 {"p", 1}),
            "(1) (3) (2) | examined=12 derivations=4 inserts=3 firings=2 "
            "dedup_probes=4 index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, RuleOrderChoosesKeyColumns) {
  // Under the order {1, 0}, b is scanned first and a is probed on Z.
  const char* text = R"(
    a(1, 2). a(2, 3). a(3, 4).
    b(2, x). b(3, y). b(5, z). b(6, w).
    p(X, Y) <- a(X, Z), b(Z, Y).
  )";
  EXPECT_EQ(Eval(text, {"p", 2}),
            "(1, x) (2, y) | examined=5 derivations=2 inserts=2 firings=1 "
            "dedup_probes=2 index_probes=3 delta_rows=0 iterations=0");
  EXPECT_EQ(Eval(text, {"p", 2}, {{0, {1, 0}}}),
            "(1, x) (2, y) | examined=6 derivations=2 inserts=2 firings=1 "
            "dedup_probes=2 index_probes=4 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, RecursionOverComplexTerms) {
  EXPECT_EQ(Eval(R"(
                e(1, 2). e(2, 3). e(3, 1).
                path(X, Y, [X, Y]) <- e(X, Y).
                path(X, Y, [X | P]) <- e(X, Z), path(Z, Y, P), Y != X.
              )",
                 {"path", 3}),
            "(1, 2, [1, 2]) (2, 3, [2, 3]) (3, 1, [3, 1]) (1, 3, [1, 2, 3]) "
            "(2, 1, [2, 3, 1]) (3, 2, [3, 1, 2]) | examined=15 "
            "derivations=6 inserts=6 firings=3 dedup_probes=6 "
            "index_probes=6 delta_rows=3 iterations=3");
}

TEST(RuleEvalTest, UnsafeBuiltinMessage) {
  EXPECT_EQ(Eval(R"(
                s(1). u(2).
                p(X) <- s(X), X < Y, u(Y).
              )",
                 {"p", 1}),
            "Unsafe: builtin 1 < Y is not computable at this point of rule "
            "p(X) <- s(X), X < Y, u(Y). (unsafe literal order)");
  EXPECT_EQ(Eval(R"(
                s(1). u(2).
                p(X) <- s(X), f(X, Y) = Z, u(Y), u(Z).
              )",
                 {"p", 1}),
            "Unsafe: builtin f(1, Y) = Z is not computable at this point of "
            "rule p(X) <- s(X), f(X, Y) = Z, u(Y), u(Z). (unsafe literal "
            "order)");
  // The unbound side would need equation solving.
  EXPECT_EQ(Eval(R"(
                s(1).
                p(Y) <- s(X), X = Y + 1.
              )",
                 {"p", 1}),
            "Unsafe: builtin 1 = Y + 1 is not computable at this point of "
            "rule p(Y) <- s(X), X = Y + 1. (unsafe literal order)");
  // Arithmetic read from a stored value makes the unbound side unsolvable
  // too.
  EXPECT_EQ(Eval(R"(
                w(1 + 2). c(f(1, 3)).
                p(A) <- w(B), c(C), f(A, B) = C.
              )",
                 {"p", 1}),
            "Unsafe: builtin f(A, (1 + 2)) = f(1, 3) is not computable at "
            "this point of rule p(A) <- w(B), c(C), f(A, B) = C. (unsafe "
            "literal order)");
  // Never reached: no error.
  EXPECT_EQ(Eval(R"(
                u(2).
                p(X) <- s(X), X < Y, u(Y).
              )",
                 {"p", 1}),
            " | examined=0 derivations=0 inserts=0 firings=1 dedup_probes=0 "
            "index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, UnsafeNegationMessage) {
  EXPECT_EQ(Eval(R"(
                s(1). t(1, 2). u(2).
                p(X) <- s(X), not t(X, Y), u(Y).
              )",
                 {"p", 1}),
            "Unsafe: negated literal not t(1, Y) has unbound variables in "
            "rule p(X) <- s(X), not t(X, Y), u(Y).");
}

TEST(RuleEvalTest, UnsafeHeadMessage) {
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                p(X, f(X, Y)) <- s(X).
              )",
                 {"p", 2}),
            "Unsafe: non-ground head value f(1, Y) in rule p(X, f(X, Y)) <- "
            "s(X). (rule is not range-restricted under this order)");
  // An earlier head argument whose arithmetic fails ends the derivation
  // before the unbound one is reached.
  EXPECT_EQ(Eval(R"(
                s(1). s(2).
                p(X / 0, Y) <- s(X).
              )",
                 {"p", 2}),
            " | examined=2 derivations=2 inserts=0 firings=1 dedup_probes=0 "
            "index_probes=0 delta_rows=0 iterations=0");
}

TEST(RuleEvalTest, SelectMatchingPatterns) {
  const char* text = R"(
    r(1, 1.0). r(1, 2). r(f(1, a), 1). r(f(2, b), 2). r(f(3, c), 4).
  )";
  EXPECT_EQ(Query(text, "r(X, X)"), "(1, 1r)");
  EXPECT_EQ(Query(text, "r(f(X, Y), X)"), "(f(1, a), 1) (f(2, b), 2)");
  EXPECT_EQ(Query(text, "r(1, Y)"), "(1, 1r) (1, 2)");
  EXPECT_EQ(Query(text, "r(f(X, b), Z)"), "(f(2, b), 2)");
}

}  // namespace
}  // namespace ldl
