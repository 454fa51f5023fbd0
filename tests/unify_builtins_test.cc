#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/parser.h"
#include "engine/builtins.h"
#include "engine/rule_eval.h"

namespace ldl {
namespace {

Term T(const char* text) {
  auto r = ParseTerm(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

/// A pattern compiled against an empty scope, with its register file and
/// the store its values live in.
struct Pattern {
  ValueStore store;
  RegisterScope scope;
  TermCode code;
  std::vector<Value> regs;

  explicit Pattern(const char* text) : code(scope.CompileMatch(T(text))) {
    regs.resize(scope.size());
    scope.LoadConstants(&store, regs.data());
  }
  bool Match(const char* value) {
    return code.Match(store.Intern(T(value)), regs.data(), store);
  }
  Term operator[](const char* var) {
    return store.ToTerm(regs[scope.RegisterOf(var)]);
  }
};

TEST(UnifyTest, VariableBindsToConstant) {
  Pattern p("X");
  EXPECT_TRUE(p.Match("42"));
  EXPECT_EQ(p["X"].int_value(), 42);
}

TEST(UnifyTest, FunctionTermsUnifyStructurally) {
  Pattern p("f(X, g(Y))");
  EXPECT_TRUE(p.Match("f(1, g(a))"));
  EXPECT_EQ(p["X"].int_value(), 1);
  EXPECT_EQ(p["Y"].text(), "a");
}

TEST(UnifyTest, FunctorMismatchFails) {
  Pattern p("f(X)");
  EXPECT_FALSE(p.Match("g(1)"));
  EXPECT_FALSE(p.Match("f(1, 2)"));  // arity is part of the functor
  EXPECT_FALSE(p.Match("1"));
}

TEST(UnifyTest, ConflictingBindingFails) {
  // The second X reads what the first one wrote.
  Pattern p("f(X, X)");
  EXPECT_FALSE(p.Match("f(1, 2)"));
  EXPECT_TRUE(p.Match("f(3, 3)"));
  EXPECT_EQ(p["X"].int_value(), 3);
}

TEST(UnifyTest, SharedVariableAcrossCalls) {
  // A variable bound by an earlier pattern is a read in a later one.
  RegisterScope scope;
  TermCode first = scope.CompileMatch(T("X"));
  TermCode later = scope.CompileMatch(T("X"));
  EXPECT_EQ(first.op, TermCode::Op::kWrite);
  EXPECT_EQ(later.op, TermCode::Op::kRead);
  ValueStore store;
  std::vector<Value> regs(scope.size());
  EXPECT_TRUE(first.Match(store.Intern(T("7")), regs.data(), store));
  EXPECT_FALSE(later.Match(store.Intern(T("8")), regs.data(), store));
  EXPECT_TRUE(later.Match(store.Intern(T("7")), regs.data(), store));
}

TEST(UnifyTest, ListPatterns) {
  Pattern p("[H | Rest]");
  EXPECT_TRUE(p.Match("[1, 2, 3]"));
  EXPECT_EQ(p["H"].int_value(), 1);
  EXPECT_EQ(p["Rest"].ToString(), "[2, 3]");
  EXPECT_FALSE(p.Match("[]"));
}

TEST(UnifyTest, NumericCrossKindEquality) {
  EXPECT_TRUE(GroundUnifies(T("1"), T("1.0")));
  EXPECT_FALSE(GroundUnifies(T("1"), T("1.5")));
  EXPECT_TRUE(GroundUnifies(T("f(1, [2])"), T("f(1.0, [2.0])")));
  // Constants and reads inside a pattern compare the same way.
  Pattern p("f(X, 1, X)");
  EXPECT_TRUE(p.Match("f(2, 1.0, 2.0)"));
  EXPECT_EQ(p["X"].kind(), TermKind::kInt);  // the first occurrence wrote
  EXPECT_FALSE(p.Match("f(2, 1.5, 2)"));
}

TEST(ArithmeticTest, FoldsGroundExpressions) {
  auto r = EvalArithmetic(T("2 + 3 * 4"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_value(), 14);
}

TEST(ArithmeticTest, MixedIntRealPromotes) {
  auto r = EvalArithmetic(T("1 + 2.5"));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->real_value(), 3.5);
}

TEST(ArithmeticTest, IntegerDivisionStaysIntWhenExact) {
  auto r = EvalArithmetic(T("6 / 3"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind(), TermKind::kInt);
  EXPECT_EQ(r->int_value(), 2);
  auto q = EvalArithmetic(T("7 / 2"));
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->real_value(), 3.5);
}

TEST(ArithmeticTest, DivisionByZeroIsError) {
  EXPECT_FALSE(EvalArithmetic(T("1 / 0")).ok());
  EXPECT_FALSE(EvalArithmetic(T("1 mod 0")).ok());
}

TEST(ArithmeticTest, DataConstructorsAreNotArithmetic) {
  auto r = EvalArithmetic(T("f(1 + 1, a)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "f(2, a)");  // inner arithmetic folds
  EXPECT_FALSE(ContainsArithmetic(*r));
}

bool Holds(BuiltinKind k, const char* lhs, const char* rhs) {
  return EvalGroundBuiltin(k, T(lhs), T(rhs));
}

/// Fires the single rule of `text` once over an empty database and returns
/// the rows it derived, or the error.
std::string FireOnce(const char* text) {
  auto program = ParseProgram(text);
  if (!program.ok()) return program.status().ToString();
  auto compiled = CompiledRule::Compile(program->rules()[0]);
  if (!compiled.ok()) return compiled.status().ToString();
  Relation out("out", program->rules()[0].head().arity());
  EvalCounters counters;
  RuleState state(*compiled, {}, out.store());
  std::vector<RelationView> views(program->rules()[0].body().size());
  auto fired = EvaluateRule(*compiled, &state, views.data(), &out, &counters);
  if (!fired.ok()) return fired.status().ToString();
  return out.ToString();
}

TEST(BuiltinTest, ComparisonOnGroundValues) {
  EXPECT_TRUE(Holds(BuiltinKind::kLt, "1", "2"));
  EXPECT_FALSE(Holds(BuiltinKind::kGe, "1", "2"));
  EXPECT_TRUE(Holds(BuiltinKind::kNe, "a", "b"));
  EXPECT_TRUE(Holds(BuiltinKind::kLe, "2 * 3", "6.0"));
  EXPECT_FALSE(Holds(BuiltinKind::kLt, "1 / 0", "2"));  // arithmetic error
}

TEST(BuiltinTest, ComparisonWithUnboundVariableNotComputable) {
  Literal lt = Literal::MakeBuiltin(BuiltinKind::kLt, T("X"), T("2"));
  EXPECT_FALSE(BuiltinComputable(lt, false, true));
  EXPECT_EQ(FireOnce("p(X) <- X < 2."),
            "Unsafe: builtin X < 2 is not computable at this point of rule "
            "p(X) <- X < 2. (unsafe literal order)");
}

TEST(BuiltinTest, EqBindsVariableToArithmeticResult) {
  EXPECT_EQ(FireOnce("p(X) <- X = 2 * 21."), FireOnce("p(42) <- 1 = 1."));
}

TEST(BuiltinTest, EqWorksInBothDirections) {
  EXPECT_EQ(FireOnce("p(Y) <- 3 + 4 = Y."), FireOnce("p(7) <- 1 = 1."));
}

TEST(BuiltinTest, EqBothUnboundNotComputable) {
  Literal eq = Literal::MakeBuiltin(BuiltinKind::kEq, T("X"), T("Y + 1"));
  EXPECT_FALSE(BuiltinComputable(eq, false, false));
  EXPECT_EQ(FireOnce("p(X) <- X = Y + 1."),
            "Unsafe: builtin X = Y + 1 is not computable at this point of "
            "rule p(X) <- X = Y + 1. (unsafe literal order)");
}

TEST(BuiltinTest, EqStructuralDecomposition) {
  EXPECT_EQ(FireOnce("p(X) <- f(X, 2) = f(1, 2)."), FireOnce("p(1) <- 1 = 1."));
  EXPECT_EQ(FireOnce("p(X) <- f(X, 2) = f(1, 3)."), FireOnce("p(1) <- 1 = 2."));
}

TEST(BuiltinTest, EqGroundMismatchFails) {
  EXPECT_FALSE(Holds(BuiltinKind::kEq, "1 + 1", "3"));
  EXPECT_TRUE(Holds(BuiltinKind::kEq, "1 + 1", "2.0"));
  EXPECT_FALSE(Holds(BuiltinKind::kEq, "1 / 0", "1 / 0"));
}

TEST(BuiltinTest, ComputabilityTable) {
  // Paper section 8.1: comparisons need all variables bound; equality needs
  // one side bound.
  EXPECT_TRUE(BuiltinComputableWith(BuiltinKind::kEq, true, false));
  EXPECT_TRUE(BuiltinComputableWith(BuiltinKind::kEq, false, true));
  EXPECT_FALSE(BuiltinComputableWith(BuiltinKind::kEq, false, false));
  EXPECT_FALSE(BuiltinComputableWith(BuiltinKind::kLt, true, false));
  EXPECT_TRUE(BuiltinComputableWith(BuiltinKind::kLt, true, true));
}

}  // namespace
}  // namespace ldl
