#include "ast/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "ldl/ldl.h"

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
  // 400k elements: every later walk of the fact (the ground check when it
  // is stored, hashing, comparison) must loop down the list, not recurse.
  std::string text = "big([";
  for (int i = 0; i < 400000; ++i) text += i ? ", 1" : "1";
  text += "]).";
  auto result = ParseProgram(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->facts().size(), 1u);

  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(text).ok());
  auto answer = sys.Query("big(X)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->answers.size(), 1u);
}

// Every error site of the grammar, one input each, with the exact text.
TEST(ParserTest, ErrorMessagesArePinned) {
  enum Entry { kProgram, kLiteral, kTerm };
  struct Case {
    Entry entry;
    std::string text;
    std::string error;
  };
  const Case cases[] = {
      {kProgram, "p(a).\nq(b) @.",
       "InvalidArgument: line 2: unexpected character '@'"},
      {kProgram, "p(a).\nq(\"oops).",
       "InvalidArgument: line 2: unterminated string literal"},
      // A newline inside a string literal does not advance the line count.
      {kProgram, "s(\"two\nlines\").\nt(,).",
       "InvalidArgument: line 2: expected a term"},
      {kProgram, "p(a) q(b).",
       "InvalidArgument: line 1: expected '<-', '.' or '?'"},
      {kProgram, "p(X) <- q(X) r(X).", "InvalidArgument: line 1: expected '.'"},
      {kProgram, "p(1,\n2", "InvalidArgument: line 2: expected ')'"},
      {kProgram, "p(X) <- q(Y), X = (Y + 1.",
       "InvalidArgument: line 1: expected ')'"},
      {kProgram, "p([1, 2).", "InvalidArgument: line 1: expected ']'"},
      {kProgram, "p(,).", "InvalidArgument: line 1: expected a term"},
      {kLiteral, "p(X) q", "InvalidArgument: line 1: expected end of input"},
      {kTerm, "f(a) b", "InvalidArgument: line 1: expected end of input"},
      {kProgram, "p(a).\n42.",
       "InvalidArgument: line 2: expected a literal, got term 42"},
      // The line is the one of the token after the clause's '.'.
      {kProgram, "X = 1.\nq(a).",
       "InvalidArgument: line 2: builtin cannot stand alone as a clause"},
      {kProgram, "p(X) <- q(X), not X > 3.",
       "InvalidArgument: 'not' cannot be applied to a builtin"},
      {kProgram, "q(a).\n" + NestedCalls(1100),
       "InvalidArgument: line 2: nesting deeper than 1024 levels"},
  };
  for (const Case& c : cases) {
    Status status;
    switch (c.entry) {
      case kProgram:
        status = ParseProgram(c.text).status();
        break;
      case kLiteral:
        status = ParseLiteral(c.text).status();
        break;
      case kTerm:
        status = ParseTerm(c.text).status();
        break;
    }
    EXPECT_EQ(status.ToString(), c.error) << c.text.substr(0, 80);
  }
}

// The parser reads the input once, front to back, so the first error in
// reading order is the one reported: the syntax error on line 1 wins over
// the stray character on line 2.
TEST(ParserTest, FirstErrorInReadingOrderIsReported) {
  auto result = ParseProgram("p(1) q(2).\n@");
  EXPECT_EQ(result.status().ToString(),
            "InvalidArgument: line 1: expected '<-', '.' or '?'");
}

TEST(ParserTest, NumbersOutOfRangeAreTypedErrors) {
  const std::string texts[] = {"99999999999999999999", "-9223372036854775808",
                               std::string(400, '9') + ".5"};
  for (const std::string& text : texts) {
    auto result = ParseTerm(text);
    ASSERT_FALSE(result.ok()) << text << " -> " << result->ToString();
    EXPECT_EQ(result.status().ToString(),
              "InvalidArgument: line 1: number out of range");
  }
  auto max = ParseTerm("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->int_value(), 9223372036854775807);
  auto min = ParseTerm("-9223372036854775807");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->int_value(), -9223372036854775807);
}

}  // namespace
}  // namespace ldl
