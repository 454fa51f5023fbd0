// Randomized cross-validation of the evaluation engine: all methods must
// agree on answers across random data shapes, and the engine must be robust
// to empty relations, self-loops, large fan-outs, and deep recursion.

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "engine/query_eval.h"
#include "ldl/ldl.h"
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

std::vector<Tuple> Sorted(const Relation& r) {
  std::vector<Tuple> out = r.tuples();
  std::sort(out.begin(), out.end());
  return out;
}

constexpr const char* kTc = R"(
  tc(X, Y) <- edge(X, Y).
  tc(X, Y) <- edge(X, Z), tc(Z, Y).
)";

// Property: naive == seminaive == magic on random DAGs, for bound and free
// query forms (counting checked separately where applicable).
class RandomDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDagTest, MethodsAgreeOnRandomDags) {
  uint64_t seed = GetParam();
  Program p = P(kTc);
  Database db;
  Rng rng(seed);
  size_t n = 20 + rng.Uniform(40);
  size_t degree = 1 + rng.Uniform(3);
  testing::MakeRandomDag(n, degree, seed * 31, &db);

  for (const char* query : {"tc(0, Y)", "tc(X, Y)", "tc(X, 7)"}) {
    Literal goal = L(query);
    QueryEvalOptions options;
    auto naive = EvaluateQuery(p, &db, goal, RecursionMethod::kNaive, options);
    auto semi =
        EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, options);
    auto magic =
        EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, options);
    ASSERT_TRUE(naive.ok() && semi.ok() && magic.ok())
        << query << " seed " << seed;
    EXPECT_EQ(Sorted(naive->answers), Sorted(semi->answers))
        << query << " seed " << seed;
    EXPECT_EQ(Sorted(semi->answers), Sorted(magic->answers))
        << query << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// Property: on cyclic graphs the fixpoint still terminates (set semantics)
// and methods agree.
class RandomCycleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCycleTest, MethodsAgreeOnCycles) {
  uint64_t seed = GetParam();
  Program p = P(kTc);
  Database db;
  testing::MakeCycle(5 + seed * 3, &db);
  // Add a few chords.
  Relation* edge = db.Find({"edge", 2});
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    edge->Insert({Term::MakeInt(static_cast<int64_t>(rng.Uniform(5))),
                  Term::MakeInt(static_cast<int64_t>(rng.Uniform(5)))});
  }
  Literal goal = L("tc(0, Y)");
  auto semi = EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, {});
  auto magic = EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, {});
  ASSERT_TRUE(semi.ok() && magic.ok());
  EXPECT_EQ(Sorted(semi->answers), Sorted(magic->answers));
  // Full cycle: everything reaches everything.
  EXPECT_EQ(semi->answers.size(), 5 + seed * 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCycleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

// Differential: counting structurally applies to a bound query over a
// linear clique, but cyclic data makes its ascent diverge. The evaluator
// must detect this, fall back to magic sets, and the answers delivered by
// the fallback path must match a direct magic evaluation exactly.
class MagicCountingCycleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MagicCountingCycleTest, CountingFallbackMatchesMagicOnCycles) {
  uint64_t seed = GetParam();
  Program p = P(kTc);
  Database db;
  Rng rng(seed * 977);
  size_t n = 8 + rng.Uniform(16);
  testing::MakeCycle(n, &db);
  Relation* edge = db.Find({"edge", 2});
  // Chords (including possible self-loops) keep the graph strongly cyclic
  // whatever the ring size.
  for (int i = 0; i < 3; ++i) {
    edge->Insert(
        {Term::MakeInt(static_cast<int64_t>(rng.Uniform(n))),
         Term::MakeInt(static_cast<int64_t>(rng.Uniform(n)))});
  }
  Literal goal = L("tc(0, Y)");
  auto magic = EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, {});
  auto counting = EvaluateQuery(p, &db, goal, RecursionMethod::kCounting, {});
  ASSERT_TRUE(magic.ok()) << magic.status();
  ASSERT_TRUE(counting.ok()) << counting.status();
  EXPECT_EQ(Sorted(magic->answers), Sorted(counting->answers))
      << "seed " << seed << " n " << n;
  // The result must really have come through the fallback path: cyclic
  // data cannot complete the counting ascent.
  EXPECT_NE(counting->note.find("fell back"), std::string::npos)
      << "note: " << counting->note;
  EXPECT_EQ(counting->method_used, RecursionMethod::kMagic);
  // Everything on the ring reaches everything.
  EXPECT_EQ(magic->answers.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicCountingCycleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(EngineEdgeTest, EmptyBaseRelation) {
  Program p = P(kTc);
  Database db;
  db.GetOrCreate({"edge", 2});  // empty
  auto result = EvaluateQuery(p, &db, L("tc(0, Y)"),
                              RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answers.empty());
}

TEST(EngineEdgeTest, MissingBaseRelation) {
  Program p = P(kTc);
  Database db;  // no edge relation at all
  auto result = EvaluateQuery(p, &db, L("tc(0, Y)"),
                              RecursionMethod::kMagic, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->answers.empty());
}

TEST(EngineEdgeTest, SelfLoopEdge) {
  Program p = P(kTc);
  Database db;
  (void)db.AddFact(L("edge(3, 3)"));
  auto result = EvaluateQuery(p, &db, L("tc(3, Y)"),
                              RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 1u);  // tc(3, 3) only, no divergence
}

TEST(EngineEdgeTest, DeepChainRecursion) {
  Program p = P(kTc);
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  const int64_t depth = 500;
  for (int64_t i = 0; i < depth; ++i) {
    edge->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  auto result =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kMagic, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), static_cast<size_t>(depth));
}

TEST(EngineEdgeTest, WideFanOut) {
  Program p = P(kTc);
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  for (int64_t i = 1; i <= 2000; ++i) {
    edge->Insert({Term::MakeInt(0), Term::MakeInt(i)});
  }
  auto result =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kCounting, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 2000u);
}

TEST(EngineEdgeTest, GroundQueryOnDerived) {
  Program p = P(kTc);
  Database db;
  (void)db.AddFact(L("edge(1, 2)"));
  (void)db.AddFact(L("edge(2, 3)"));
  auto yes = EvaluateQuery(p, &db, L("tc(1, 3)"),
                           RecursionMethod::kMagic, {});
  auto no = EvaluateQuery(p, &db, L("tc(3, 1)"),
                          RecursionMethod::kMagic, {});
  ASSERT_TRUE(yes.ok() && no.ok());
  EXPECT_EQ(yes->answers.size(), 1u);
  EXPECT_TRUE(no->answers.empty());
}

TEST(EngineEdgeTest, DuplicateRulesAreHarmless) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeTreeParentData(2, 3, &db);
  Relation* par = db.Find({"par", 2});
  Relation* edge = db.GetOrCreate({"edge", 2});
  edge->InsertAll(*par);
  auto result = EvaluateQuery(p, &db, L("tc(X, Y)"),
                              RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->answers.size(), 0u);
}

TEST(EngineEdgeTest, LongSingleRuleBody) {
  // 8-way join through a chain; exercises the evaluator's backtracking.
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    q(A, I) <- e(A, B), e(B, C), e(C, D), e(D, E2),
               e(E2, F), e(F, G), e(G, H), e(H, I).
  )")
                  .ok());
  Relation* e = sys.database()->GetOrCreate({"e", 2});
  for (int64_t i = 0; i < 30; ++i) {
    e->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  sys.RefreshStatistics();
  auto answer = sys.Query("q(0, I)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][1].int_value(), 8);
}

TEST(EngineEdgeTest, NonLinearFibonacciStyleClique) {
  // Nonlinear recursion: pairs reachable by two tc hops.
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- tc(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeRandomDag(25, 2, 4, &db);
  auto semi = EvaluateQuery(p, &db, L("tc(X, Y)"),
                            RecursionMethod::kSemiNaive, {});
  auto naive =
      EvaluateQuery(p, &db, L("tc(X, Y)"), RecursionMethod::kNaive, {});
  ASSERT_TRUE(semi.ok() && naive.ok());
  EXPECT_EQ(Sorted(semi->answers), Sorted(naive->answers));
}

TEST(EngineEdgeTest, ArithmeticBoundedRecursionTerminates) {
  // Arithmetic recursion guarded by a comparison is executable when
  // evaluated (the conservative safety analysis would reject it; here we
  // drive the engine directly to confirm the guard bounds the fixpoint).
  Program p = P(R"(
    count_to(N, 0) <- limit(N).
    count_to(N, J) <- count_to(N, I), I < N, J = I + 1.
  )");
  Database db;
  (void)db.AddFact(L("limit(10)"));
  auto result = EvaluateQuery(p, &db, L("count_to(10, X)"),
                              RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 11u);  // 0..10
}

}  // namespace
}  // namespace ldl
