#include "ast/term.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "engine/query_eval.h"

namespace ldl {
namespace {

TEST(TermTest, ScalarConstruction) {
  EXPECT_EQ(Term::MakeInt(42).kind(), TermKind::kInt);
  EXPECT_EQ(Term::MakeInt(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Term::MakeReal(2.5).real_value(), 2.5);
  EXPECT_EQ(Term::MakeSymbol("austin").text(), "austin");
  EXPECT_EQ(Term::MakeString("hi").kind(), TermKind::kString);
  EXPECT_EQ(Term::MakeVariable("X").kind(), TermKind::kVariable);
}

TEST(TermTest, GroundChecks) {
  EXPECT_TRUE(Term::MakeInt(1).IsGround());
  EXPECT_FALSE(Term::MakeVariable("X").IsGround());
  Term f = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeVariable("X")});
  EXPECT_FALSE(f.IsGround());
  Term g = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("a")});
  EXPECT_TRUE(g.IsGround());
}

TEST(TermTest, EqualityAndHash) {
  Term a = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("x")});
  Term b = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("x")});
  Term c = Term::MakeFunction("f", {Term::MakeInt(2), Term::MakeSymbol("x")});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
}

// Hash values are part of the storage contract: answer fingerprints are
// sums of row hashes built from them (ValueStore::Hash equals Term::Hash),
// so these values (recorded from the recursive definition, on a 64-bit
// libstdc++) must not move.
TEST(TermTest, HashValuesArePinned) {
  EXPECT_EQ(Term::MakeInt(42).Hash(), 11400714819323198590u);
  EXPECT_EQ(Term::MakeInt(-7).Hash(), 11400714819323198543u);
  EXPECT_EQ(Term::MakeReal(1.5).Hash(), 16383221891972305278u);
  EXPECT_EQ(Term::MakeSymbol("austin").Hash(), 2004589216498171991u);
  EXPECT_EQ(Term::MakeString("austin").Hash(), 2004589216498171921u);
  EXPECT_EQ(Term::MakeVariable("X").Hash(), 4997345185781462783u);
  EXPECT_EQ(
      Term::MakeFunction("f", {Term::MakeSymbol("a"), Term::MakeInt(1)}).Hash(),
      13900311536383269941u);
  EXPECT_EQ(Term::MakeList({Term::MakeInt(1), Term::MakeInt(2),
                            Term::MakeInt(3)})
                .Hash(),
            9055882476250103098u);
  Term g = Term::MakeFunction(
      "g", {Term::MakeFunction("h", {Term::MakeInt(0)}),
            Term::MakeList({Term::MakeSymbol("a")}, Term::MakeVariable("T"))});
  EXPECT_EQ(g.Hash(), 2247567297270417267u);
  std::vector<Term> items;
  for (int i = 0; i < 1000; ++i) items.push_back(Term::MakeInt(i));
  EXPECT_EQ(Term::MakeList(items).Hash(), 8444857781790793562u);
}

// Hash and == walk a list's spine iteratively: separately built lists far
// deeper than the stack allows recursion for compare and hash alike.
TEST(TermTest, DeepListsHashAndCompareWithoutRecursion) {
  std::vector<Term> items;
  for (int i = 0; i < 400000; ++i) items.push_back(Term::MakeInt(i % 7));
  Term a = Term::MakeList(items);
  Term b = Term::MakeList(items);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  items.back() = Term::MakeInt(100);
  Term c = Term::MakeList(items);
  EXPECT_NE(a, c);
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(TermTest, NumericKindsCompareDistinctly) {
  // Term equality is structural: 1 (int) != 1.0 (real) as stored values;
  // numeric equality is the builtin layer's job.
  EXPECT_NE(Term::MakeInt(1), Term::MakeReal(1.0));
}

TEST(TermTest, TotalOrderIsStrictWeak) {
  std::set<Term> s;
  s.insert(Term::MakeInt(1));
  s.insert(Term::MakeInt(1));
  s.insert(Term::MakeSymbol("a"));
  s.insert(Term::MakeVariable("X"));
  s.insert(Term::MakeFunction("f", {Term::MakeInt(1)}));
  EXPECT_EQ(s.size(), 4u);
}

// The total order, pinned on the recursive definition it replaced: by
// kind (variable < int < real < string < symbol < function), then value or
// text, then functor, arity and arguments left to right.
TEST(TermTest, TotalOrderIsPinned) {
  auto I = Term::MakeInt;
  auto S = Term::MakeSymbol;
  auto V = Term::MakeVariable;
  auto F = [](const char* f, std::vector<Term> args) {
    return Term::MakeFunction(f, std::move(args));
  };
  const std::vector<Term> sorted = {
      V("X"),
      V("Y"),
      I(-1),
      I(2),
      Term::MakeReal(0.5),
      Term::MakeReal(2.0),
      Term::MakeString("a"),
      Term::MakeString("b"),
      S("[]"),
      S("a"),
      S("b"),
      Term::MakeList({I(1)}, V("T")),
      Term::MakeList({I(1), I(2)}),
      Term::MakeList({I(1), I(2), I(3)}),
      Term::MakeList({I(2)}),
      F("f", {I(1)}),
      F("f", {S("a")}),
      F("f", {F("f", {I(1)})}),
      F("f", {V("X"), I(1)}),
      F("f", {I(1), V("X")}),
      F("f", {I(1), S("a")}),
      F("g", {I(1)}),
  };
  std::vector<Term> shuffled(sorted.rbegin(), sorted.rend());
  std::swap(shuffled[3], shuffled[17]);
  std::swap(shuffled[0], shuffled[9]);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, sorted);
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].Compare(sorted[i]), 0) << sorted[i].ToString();
    for (size_t j = i + 1; j < sorted.size(); ++j) {
      EXPECT_TRUE(sorted[i] < sorted[j])
          << sorted[i].ToString() << " < " << sorted[j].ToString();
      EXPECT_FALSE(sorted[j] < sorted[i])
          << sorted[j].ToString() << " < " << sorted[i].ToString();
      EXPECT_EQ(sorted[i].Compare(sorted[j]), -1);
      EXPECT_EQ(sorted[j].Compare(sorted[i]), 1);
    }
  }
}

// Comparing equal nested terms costs one walk, not two per level: two
// separately built 400k-element lists compare, and sort as answers, at
// once and without recursing down the spine.
TEST(TermTest, LongEqualListsCompareInLinearTime) {
  std::vector<Term> items;
  for (int i = 0; i < 400000; ++i) {
    items.push_back(Term::MakeFunction("p", {Term::MakeInt(i % 5)}));
  }
  Term a = Term::MakeList(items);
  Term b = Term::MakeList(items);
  items.back() = Term::MakeFunction("p", {Term::MakeInt(9)});
  Term c = Term::MakeList(items);
  Relation answers("answers", 2);
  answers.Insert({c, Term::MakeInt(0)});
  answers.Insert({a, Term::MakeInt(1)});
  answers.Insert({b, Term::MakeInt(0)});

  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_TRUE(a < c);
  EXPECT_EQ(c.Compare(a), 1);
  std::vector<Tuple> canonical = CanonicalAnswers(answers);
  [[maybe_unused]] const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(canonical.size(), 3u);
  EXPECT_EQ(canonical[0][1], Term::MakeInt(0));
  EXPECT_EQ(canonical[1][1], Term::MakeInt(1));
  EXPECT_EQ(canonical[2][0], c);
#ifdef NDEBUG
  // Optimized builds only: sanitizer builds are many times slower, and
  // the quadratic-or-worse failure this guards against never finishes.
  EXPECT_LT(seconds, 1.0);
#endif
}

TEST(TermTest, ListSugar) {
  Term list = Term::MakeList({Term::MakeInt(1), Term::MakeInt(2)});
  EXPECT_EQ(list.ToString(), "[1, 2]");
  EXPECT_TRUE(list.IsFunction());
  EXPECT_EQ(list.text(), ".");
  Term with_tail =
      Term::MakeList({Term::MakeInt(1)}, Term::MakeVariable("T"));
  EXPECT_EQ(with_tail.ToString(), "[1 | T]");
}

TEST(TermTest, MillionElementListDestroysIteratively) {
  std::vector<Term> items(1000000, Term::MakeInt(7));
  {
    Term list = Term::MakeList(items);
    EXPECT_TRUE(list.IsFunction());
    EXPECT_EQ(list.args()[0].int_value(), 7);
  }  // a recursive destructor overflows the stack here
  SUCCEED();
}

TEST(TermTest, SharedTailSurvivesTheListThatHeldIt) {
  Term tail;
  {
    Term list = Term::MakeList(std::vector<Term>(1000, Term::MakeInt(1)),
                               Term::MakeList({Term::MakeInt(2)}));
    tail = list;
    for (int i = 0; i < 1000; ++i) tail = Term(tail.args()[1]);
  }
  EXPECT_EQ(tail.ToString(), "[2]");
}

TEST(TermTest, CollectVariables) {
  Term t = Term::MakeFunction(
      "f", {Term::MakeVariable("X"),
            Term::MakeFunction("g", {Term::MakeVariable("Y"),
                                     Term::MakeVariable("X")})});
  std::vector<std::string> vars;
  t.CollectVariables(&vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"X", "Y", "X"}));
  EXPECT_TRUE(t.ContainsVariable("Y"));
  EXPECT_FALSE(t.ContainsVariable("Z"));
}

TEST(TermTest, StrictSubterm) {
  Term x = Term::MakeVariable("X");
  Term fx = Term::MakeFunction("f", {x});
  Term gfx = Term::MakeFunction("g", {fx, Term::MakeInt(0)});
  EXPECT_TRUE(fx.HasStrictSubterm(x));
  EXPECT_TRUE(gfx.HasStrictSubterm(x));
  EXPECT_TRUE(gfx.HasStrictSubterm(fx));
  EXPECT_FALSE(x.HasStrictSubterm(x));
  EXPECT_FALSE(fx.HasStrictSubterm(gfx));
}

TEST(TermTest, SizeAndDepth) {
  Term x = Term::MakeVariable("X");
  EXPECT_EQ(x.Size(), 1u);
  EXPECT_EQ(x.Depth(), 1u);
  Term t = Term::MakeFunction("f", {Term::MakeFunction("g", {x}),
                                    Term::MakeInt(3)});
  EXPECT_EQ(t.Size(), 4u);
  EXPECT_EQ(t.Depth(), 3u);
}

TEST(TermTest, PrintingForms) {
  EXPECT_EQ(Term::MakeString("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Term::MakeFunction("f", {Term::MakeVariable("X")}).ToString(),
            "f(X)");
  EXPECT_EQ(Term::MakeList({}).ToString(), "[]");
}

}  // namespace
}  // namespace ldl
