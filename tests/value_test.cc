#include "ast/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "base/hash.h"
#include "engine/builtins.h"
#include "engine/query_eval.h"
#include "engine/rule_eval.h"
#include "ldl/ldl.h"
#include "storage/relation.h"

namespace ldl {
namespace {

Term T(const char* text) {
  auto r = ParseTerm(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Terms of every kind, with numbers that differ only by kind or sign, and
/// function terms nesting them.
std::vector<Term> Samples() {
  return {
      Term::MakeVariable("X"),
      Term::MakeInt(0),
      Term::MakeInt(1),
      Term::MakeInt(-7),
      Term::MakeReal(1.0),
      Term::MakeReal(0.0),
      Term::MakeReal(-0.0),
      Term::MakeReal(2.5),
      Term::MakeReal(kNaN),
      Term::MakeString("austin"),
      Term::MakeSymbol("austin"),
      Term::MakeSymbol("[]"),
      Term::MakeFunction("f", {}),
      T("f(a, 1)"),
      T("f(a, 1.0)"),
      T("f(1)"),
      T("f(1.0)"),
      T("g(h(0), [a | T])"),
      T("[1, 2, 3]"),
      T("[1.0, 2, 3]"),
      T("1 + 2"),
      T("p(\"s\", s, 2.5)"),
      Term::MakeFunction("f", {Term::MakeReal(kNaN)}),
  };
}

TEST(ValueTest, RoundTripsEveryTermKind) {
  ValueStore store;
  for (const Term& t : Samples()) {
    const Value v = store.Intern(t);
    const Term back = store.ToTerm(v);
    EXPECT_EQ(back.kind(), t.kind()) << t;
    // -0.0 is interned after 0.0, which stands for both (they are ==).
    if (t.ToString() != "-0") {
      EXPECT_EQ(back.ToString(), t.ToString());
    }
    EXPECT_EQ(v.kind(), t.kind()) << t;
    if (t.ToString() != "nan" && t.ToString() != "f(nan)") {
      EXPECT_EQ(back, t);
      EXPECT_EQ(store.Intern(t), v) << t << ": interning is idempotent";
    }
  }
}

TEST(ValueTest, EqualityIsTermEquality) {
  ValueStore store;
  const std::vector<Term> samples = Samples();
  for (const Term& a : samples) {
    for (const Term& b : samples) {
      EXPECT_EQ(store.Intern(a) == store.Intern(b), a == b)
          << a << " vs " << b;
    }
  }
  EXPECT_NE(store.Intern(T("1")), store.Intern(T("1.0")));
  EXPECT_EQ(store.Intern(Term::MakeReal(0.0)),
            store.Intern(Term::MakeReal(-0.0)));
  // A NaN equals nothing, not even the same value.
  const Value nan = store.Intern(Term::MakeReal(kNaN));
  EXPECT_FALSE(nan == nan);
  const Value f_nan = store.Function(store.TextId("f"), {&nan, 1});
  EXPECT_FALSE(f_nan == f_nan);
}

// Dedup and index keys compare the way Term == does.
TEST(ValueTest, DedupAndIndexKeysKeepTermEquality) {
  Relation r("r", 1);
  EXPECT_TRUE(r.Insert({Term::MakeInt(1)}));
  EXPECT_TRUE(r.Insert({Term::MakeReal(1.0)}));  // 1 != 1.0
  EXPECT_TRUE(r.Insert({Term::MakeReal(0.0)}));
  EXPECT_FALSE(r.Insert({Term::MakeReal(-0.0)}));  // 0.0 == -0.0
  EXPECT_TRUE(r.Insert({Term::MakeReal(kNaN)}));
  EXPECT_TRUE(r.Insert({Term::MakeReal(kNaN)}));  // NaN != NaN
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.Lookup({0}, {Term::MakeInt(1)}), std::vector<uint32_t>{0});
  EXPECT_EQ(r.Lookup({0}, {Term::MakeReal(1.0)}), std::vector<uint32_t>{1});
  EXPECT_EQ(r.Lookup({0}, {Term::MakeReal(-0.0)}), std::vector<uint32_t>{2});
  EXPECT_TRUE(r.Lookup({0}, {Term::MakeReal(kNaN)}).empty());
  EXPECT_FALSE(r.Contains({Term::MakeReal(kNaN)}));
  // Re-inserting a stored NaN row adds it again, as its terms never match.
  EXPECT_TRUE(r.InsertRow(r.row(3)));
  EXPECT_EQ(r.size(), 6u);
  EXPECT_EQ(r.DistinctCount(0), 6u);
}

TEST(ValueTest, MatchKeepsGroundUnifies) {
  ValueStore store;
  const std::vector<Term> samples = Samples();
  for (const Term& a : samples) {
    if (!a.IsGround()) continue;
    for (const Term& b : samples) {
      if (!b.IsGround()) continue;
      EXPECT_EQ(store.Unifies(store.Intern(a), store.Intern(b)),
                GroundUnifies(a, b))
          << a << " vs " << b;
    }
  }
  // A compiled pattern's constants and reads match across numeric kinds.
  RegisterScope scope;
  const TermCode code = scope.CompileMatch(T("f(X, 1, X)"));
  std::vector<Value> regs(scope.size());
  scope.LoadConstants(&store, regs.data());
  EXPECT_TRUE(
      code.Match(store.Intern(T("f(2, 1.0, 2.0)")), regs.data(), store));
  EXPECT_EQ(store.ToTerm(regs[scope.RegisterOf("X")]).kind(), TermKind::kInt);
  EXPECT_FALSE(
      code.Match(store.Intern(T("f(2, 1.5, 2)")), regs.data(), store));
}

TEST(ValueTest, OrderIsTermOrder) {
  ValueStore store;
  const std::vector<Term> samples = Samples();
  for (const Term& a : samples) {
    for (const Term& b : samples) {
      EXPECT_EQ(store.Compare(store.Intern(a), store.Intern(b)), a.Compare(b))
          << a << " vs " << b;
    }
  }
}

TEST(ValueTest, StructuralHashIsTermHash) {
  ValueStore store;
  for (const Term& t : Samples()) {
    EXPECT_EQ(store.Hash(store.Intern(t)), t.Hash()) << t;
  }
  std::vector<Term> items;
  for (int i = 0; i < 1000; ++i) items.push_back(Term::MakeInt(i));
  const Term list = Term::MakeList(items);
  EXPECT_EQ(store.Hash(store.Intern(list)), 8444857781790793562u);
  EXPECT_EQ(store.Hash(store.Intern(list)), list.Hash());
  // Independent of interning order: ids differ between these stores.
  ValueStore other;
  other.Intern(T("zzz(1, 2)"));
  EXPECT_EQ(other.Hash(other.Intern(list)), list.Hash());
}

TEST(ValueTest, LargeIntegersRoundTrip) {
  ValueStore store;
  const int64_t cases[] = {
      std::numeric_limits<int64_t>::max(), std::numeric_limits<int64_t>::min(),
      Value::kMaxInline,     Value::kMaxInline + 1,
      Value::kMinInline,     Value::kMinInline - 1,
      int64_t{1} << 62,      -(int64_t{1} << 62),
  };
  for (int64_t n : cases) {
    const Term t = Term::MakeInt(n);
    const Value v = store.Intern(t);
    EXPECT_EQ(v.IsInlineInt(), n >= Value::kMinInline && n <= Value::kMaxInline)
        << n;
    EXPECT_EQ(v.kind(), TermKind::kInt);
    EXPECT_EQ(store.IntValue(v), n);
    EXPECT_EQ(store.ToTerm(v), t);
    EXPECT_EQ(store.Hash(v), t.Hash());
    EXPECT_EQ(store.Int(n), v) << n;
  }
  // Arithmetic that leaves the inline range yields the interned value.
  const std::optional<Value> sum = FoldArithmetic(
      store.Intern(Term::MakeFunction(
          "+", {Term::MakeInt(Value::kMaxInline), Term::MakeInt(1)})),
      &store);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(*sum, store.Intern(Term::MakeInt(Value::kMaxInline + 1)));
  EXPECT_NE(*sum, store.Intern(Term::MakeInt(Value::kMaxInline)));
}

// A 400k-element list lives in the arena as 400k nodes: interning it, its
// hash, comparing it and turning it back into a term all loop down its
// spine, and freeing the store frees flat vectors.
TEST(ValueTest, LongListInTheArenaNeedsNoRecursion) {
  constexpr int kItems = 400000;
  auto store = std::make_unique<ValueStore>();
  const uint32_t cons = store->TextId(".");
  Value list = store->Text(TermKind::kSymbol, "[]");
  for (int i = kItems - 1; i >= 0; --i) {
    const Value cell[2] = {Value::InlineInt(i % 7), list};
    list = store->Function(cons, cell);
  }
  std::vector<Term> items;
  for (int i = 0; i < kItems; ++i) items.push_back(Term::MakeInt(i % 7));
  const Term term = Term::MakeList(items);
  EXPECT_EQ(store->Intern(term), list);  // hash-consed: the same nodes
  EXPECT_EQ(store->Hash(list), term.Hash());
  EXPECT_EQ(store->Compare(list, list), 0);
  EXPECT_EQ(store->ToTerm(list), term);
  EXPECT_EQ(store->node_count(), static_cast<size_t>(kItems));
  store.reset();
}

// The contract the benchmark driver relies on: answers built on their own
// from terms fingerprint, sort and read back like a query's answers.
TEST(AnswerBoundaryTest, StandaloneAnswersMatchQueryAnswers) {
  auto sys = std::make_unique<LdlSystem>();
  ASSERT_TRUE(sys->LoadProgram("e(3, 1). e(1, 2). e(2, 4).\n"
                               "t(X, Y) <- e(X, Y).\n"
                               "t(X, Y) <- e(X, Z), t(Z, Y).\n")
                  .ok());
  Result<QueryAnswer> answer = sys->Query("t(X, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  const int64_t rows[][2] = {{1, 4}, {3, 1}, {2, 4}, {1, 2},
                             {3, 2}, {3, 4}};
  Relation standalone("answers", 2);
  for (const auto& row : rows) {
    Tuple t;
    for (int64_t v : row) t.push_back(Term::MakeInt(v));
    standalone.Insert(std::move(t));
  }
  EXPECT_EQ(AnswerFingerprint(standalone), AnswerFingerprint(answer->answers));
  // The fingerprint is the sum of the rows' term hashes, whatever the ids.
  uint64_t acc = 0;
  for (const auto& row : rows) {
    size_t seed = 2;
    for (int64_t v : row) HashCombine(&seed, Term::MakeInt(v).Hash());
    acc += static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL;
  }
  char want[32];
  std::snprintf(want, sizeof(want), "6:%016llx",
                static_cast<unsigned long long>(acc));
  EXPECT_EQ(AnswerFingerprint(standalone), want);
  EXPECT_EQ(CanonicalAnswers(standalone), CanonicalAnswers(answer->answers));

  // tuples() binds to a const reference, and answers outlive the system.
  sys.reset();
  const std::vector<Tuple>& got = answer->answers.tuples();
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front().size(), 2u);
  Relation dropped("answers", 2);
  for (size_t i = 1; i < got.size(); ++i) dropped.Insert(got[i]);
  EXPECT_NE(AnswerFingerprint(dropped), AnswerFingerprint(standalone));
}

TEST(AnswerBoundaryTest, CanonicalAnswersSortByTermOrder) {
  Relation r("answers", 1);
  std::vector<Tuple> rows;
  for (const char* text : {"g(1)", "b", "2.5", "\"s\"", "1", "a", "f(2)",
                           "f(1)", "-3", "[1, 2]"}) {
    rows.push_back({T(text)});
    r.Insert(rows.back());
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(CanonicalAnswers(r), rows);
}

}  // namespace
}  // namespace ldl
