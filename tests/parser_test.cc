#include "ast/parser.h"

#include <gtest/gtest.h>

#include <string>

namespace ldl {
namespace {

TEST(ParserTest, FactsRulesQueries) {
  auto result = ParseProgram(R"(
    % same generation
    up(1, 2).
    up(2, 3).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
    sg(X, Y) <- flat(X, Y).
    sg(1, Y)?
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Program& p = *result;
  EXPECT_EQ(p.facts().size(), 2u);
  EXPECT_EQ(p.rules().size(), 2u);
  EXPECT_EQ(p.queries().size(), 1u);
  EXPECT_TRUE(p.IsDerived({"sg", 2}));
  EXPECT_FALSE(p.IsDerived({"up", 2}));
}

TEST(ParserTest, PrologArrowSynonym) {
  auto result = ParseProgram("a(X) :- b(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rules().size(), 1u);
}

TEST(ParserTest, ComparisonsAndArithmetic) {
  auto result = ParseProgram(
      "rich(X) <- owns(X, P), V = P * 2 + 1, V > 100.");
  ASSERT_TRUE(result.ok()) << result.status();
  const Rule& r = result->rules()[0];
  ASSERT_EQ(r.body().size(), 3u);
  EXPECT_FALSE(r.body()[0].IsBuiltin());
  EXPECT_EQ(r.body()[1].builtin(), BuiltinKind::kEq);
  EXPECT_EQ(r.body()[2].builtin(), BuiltinKind::kGt);
  // Precedence: P * 2 + 1 == +(*(P,2),1).
  const Term& rhs = r.body()[1].args()[1];
  EXPECT_EQ(rhs.text(), "+");
  EXPECT_EQ(rhs.args()[0].text(), "*");
}

TEST(ParserTest, Negation) {
  auto result = ParseProgram(
      "bachelor(X) <- person(X), not married(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rules()[0].body()[1].negated());
}

TEST(ParserTest, NegatedBuiltinRejected) {
  auto result = ParseProgram("p(X) <- q(X), not X > 3.");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, Lists) {
  auto result = ParseProgram(
      "member(X, [X | T]).\n"
      "member(X, [H | T]) <- member(X, T).");
  ASSERT_TRUE(result.ok()) << result.status();
  // First clause has variables -> parsed as a bodiless rule, not a fact.
  EXPECT_EQ(result->rules().size(), 2u);
  EXPECT_EQ(result->facts().size(), 0u);
}

TEST(ParserTest, ComplexTermsInFacts) {
  auto result = ParseProgram("point(p(1, 2)). addr(\"main st\", 42).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->facts().size(), 2u);
  EXPECT_EQ(result->facts()[0].args()[0].ToString(), "p(1, 2)");
}

TEST(ParserTest, ZeroArityPredicate) {
  auto result = ParseProgram("go <- ready, steady.");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rules()[0].head().arity(), 0u);
}

TEST(ParserTest, ArityMismatchRejected) {
  auto result = ParseProgram("p(1, 2). p(3). ");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, SyntaxErrorsCarryLineNumbers) {
  auto result = ParseProgram("a(1).\nb(2.\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status();
}

TEST(ParserTest, UnterminatedString) {
  auto result = ParseProgram("a(\"oops).");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, NonGroundFactBecomesRule) {
  auto result = ParseProgram("p(X, 1).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rules().size(), 1u);
  EXPECT_TRUE(result->facts().empty());
}

TEST(ParserTest, NegativeNumbers) {
  auto result = ParseTerm("-5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->int_value(), -5);
  auto real = ParseTerm("-2.5");
  ASSERT_TRUE(real.ok());
  EXPECT_DOUBLE_EQ(real->real_value(), -2.5);
}

TEST(ParserTest, ParseLiteralHelper) {
  auto lit = ParseLiteral("sg(1, Y)");
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit->predicate().ToString(), "sg/2");
  EXPECT_TRUE(lit->args()[0].IsGround());
  EXPECT_FALSE(lit->args()[1].IsGround());
}

TEST(ParserTest, RoundTripPrinting) {
  const char* text = "sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).";
  auto result = ParseProgram(text);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules()[0].ToString(), text);
}

std::string NestedCalls(size_t depth) {
  std::string text = "p(";
  for (size_t i = 0; i < depth; ++i) text += "f(";
  text += "a";
  text.append(depth + 1, ')');
  return text + ".";
}

TEST(ParserTest, HostileNestingIsATypedError) {
  auto result = ParseProgram("q(a).\n" + NestedCalls(100000));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("nesting"), std::string::npos)
      << result.status().ToString();

  std::string negations;
  for (int i = 0; i < 100000; ++i) negations += "not ";
  auto negated = ParseProgram("p(X) <- q(X), " + negations + "r(X).");
  ASSERT_FALSE(negated.ok());
  EXPECT_EQ(negated.status().code(), StatusCode::kInvalidArgument);

  // A chain of binary operators nests its left operand one level per
  // operator: 100k of them build a term as deep as 100k calls.
  std::string sum = "Y";
  for (int i = 0; i < 100000; ++i) sum += " + Y";
  auto chained = ParseProgram("p(X) <- q(Y), X = " + sum + ".");
  ASSERT_FALSE(chained.ok());
  EXPECT_EQ(chained.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, NestingWithinTheLimitParses) {
  auto result = ParseProgram(NestedCalls(1000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->facts().size(), 1u);
  EXPECT_EQ(result->facts()[0].args()[0].Depth(), 1001u);
}

TEST(ParserTest, ListLengthDoesNotCountTowardNesting) {
  std::string text = "l([";
  for (int i = 0; i < 5000; ++i) text += i ? ", 1" : "1";
  auto result = ParseProgram(text + "]).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->facts().size(), 1u);
}

}  // namespace
}  // namespace ldl
