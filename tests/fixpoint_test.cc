#include "engine/fixpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/parser.h"
#include "base/strings.h"
#include "engine/query_eval.h"
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

constexpr const char* kAncestorRules = R"(
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
)";

constexpr const char* kSgRules = R"(
  sg(X, Y) <- flat(X, Y).
  sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
)";

std::vector<Tuple> Sorted(const Relation& r) {
  std::vector<Tuple> out = r.tuples();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FixpointTest, TransitiveClosureOnChain) {
  Program p = P(kAncestorRules);
  Database db;
  Relation* par = db.GetOrCreate({"par", 2});
  for (int64_t i = 0; i < 5; ++i) {
    par->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  // Chain of 6 nodes: 5+4+3+2+1 = 15 ancestor pairs.
  EXPECT_EQ(scratch.Find({"anc", 2})->size(), 15u);
  EXPECT_GT(stats.iterations, 1u);
}

TEST(FixpointTest, NaiveAndSemiNaiveAgree) {
  Program p = P(kAncestorRules);
  Database db;
  testing::MakeTreeParentData(2, 5, &db);
  Database s1, s2;
  FixpointStats st1, st2;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kNaive, &db, &s1, &st1, {})
                  .ok());
  ASSERT_TRUE(
      EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &s2, &st2, {})
          .ok());
  EXPECT_EQ(Sorted(*s1.Find({"anc", 2})), Sorted(*s2.Find({"anc", 2})));
  // Semi-naive must do strictly less join work on a multi-level recursion.
  EXPECT_LT(st2.counters.tuples_examined, st1.counters.tuples_examined);
}

TEST(FixpointTest, MutualRecursionEvenOdd) {
  Program p = P(R"(
    even(X) <- zero(X).
    even(X) <- succ(Y, X), odd(Y).
    odd(X)  <- succ(Y, X), even(Y).
  )");
  Database db;
  db.GetOrCreate({"zero", 1})->Insert({Term::MakeInt(0)});
  Relation* succ = db.GetOrCreate({"succ", 2});
  for (int64_t i = 0; i < 10; ++i) {
    succ->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  EXPECT_EQ(scratch.Find({"even", 1})->size(), 6u);  // 0,2,4,6,8,10
  EXPECT_EQ(scratch.Find({"odd", 1})->size(), 5u);   // 1,3,5,7,9
}

TEST(FixpointTest, StratifiedNegation) {
  Program p = P(R"(
    reach(X) <- source(X).
    reach(Y) <- reach(X), edge(X, Y).
    node(X) <- edge(X, Y).
    node(Y) <- edge(X, Y).
    unreachable(X) <- node(X), not reach(X).
  )");
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  edge->Insert({Term::MakeInt(1), Term::MakeInt(2)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(3)});
  edge->Insert({Term::MakeInt(4), Term::MakeInt(5)});
  db.GetOrCreate({"source", 1})->Insert({Term::MakeInt(1)});
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  EXPECT_EQ(scratch.Find({"reach", 1})->size(), 3u);        // 1,2,3
  EXPECT_EQ(scratch.Find({"unreachable", 1})->size(), 2u);  // 4,5
}

/// A relation's rows in storage order.
std::string Rows(const Relation& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.tuples()) rows.push_back(TupleToString(t));
  return StrJoin(rows, " ");
}

/// The exact work of one run: counters, rounds and each recorded round's
/// delta.
std::string Work(const FixpointStats& stats) {
  std::vector<size_t> deltas;
  for (const FixpointIteration& it : stats.per_iteration) {
    deltas.push_back(it.delta_tuples);
  }
  return StrCat("examined=", stats.counters.tuples_examined,
                " derivations=", stats.counters.derivations,
                " firings=", stats.counters.rule_firings,
                " iterations=", stats.iterations, " deltas=",
                StrJoin(deltas, ","));
}

FixpointStats RunRecorded(const Program& p, RecursionMethod method,
                          Database* db, Database* scratch) {
  FixpointOptions options;
  options.record_iterations = true;
  FixpointStats stats;
  Status st = EvaluateProgram(p, method, db, scratch, &stats, options);
  EXPECT_TRUE(st.ok()) << st;
  return stats;
}

/// Exact work and row order of both fixpoint disciplines and of a magic
/// rewrite, recorded on the engine that still evaluated every firing into a
/// temporary relation and merged it afterwards. The literals pin the
/// visibility rules: a semi-naive firing reads every relation as of its own
/// start (so the second occurrence of non-linear tc sees rows the first
/// occurrence appended this round), and a naive round reads the state at
/// the start of the round. Answers alone would not catch a break in either:
/// the counts and the row order would.
TEST(FixpointTest, CountsAndRowOrderMatchParent) {
  // Linear same-generation, semi-naive.
  {
    Program p = P(kSgRules);
    Database db;
    testing::MakeSameGenerationData(2, 2, &db);
    Database scratch;
    FixpointStats stats =
        RunRecorded(p, RecursionMethod::kSemiNaive, &db, &scratch);
    EXPECT_EQ(Work(stats),
              "examined=98 derivations=42 firings=4 iterations=4 "
              "deltas=8,32,0");
    EXPECT_EQ(Rows(*scratch.Find({"sg", 2})),
              "(0, 1) (1, 0) (2, 4) (2, 5) (3, 4) (3, 5) (4, 2) (4, 3) "
              "(5, 2) (5, 3) (6, 10) (6, 11) (6, 12) (6, 13) (7, 10) "
              "(7, 11) (7, 12) (7, 13) (8, 10) (8, 11) (8, 12) (8, 13) "
              "(9, 10) (9, 11) (9, 12) (9, 13) (10, 6) (10, 7) (10, 8) "
              "(10, 9) (11, 6) (11, 7) (11, 8) (11, 9) (12, 6) (12, 7) "
              "(12, 8) (12, 9) (13, 6) (13, 7) (13, 8) (13, 9)");
  }

  // Non-linear transitive closure over a chain with a branch, both
  // disciplines.
  Program tc = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- tc(X, Z), tc(Z, Y).
  )");
  Database graph;
  Relation* edge = graph.GetOrCreate({"edge", 2});
  for (int64_t i = 0; i < 5; ++i) {
    edge->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  edge->Insert({Term::MakeInt(2), Term::MakeInt(7)});
  {
    Database scratch;
    FixpointStats stats =
        RunRecorded(tc, RecursionMethod::kSemiNaive, &graph, &scratch);
    EXPECT_EQ(Work(stats),
              "examined=107 derivations=42 firings=7 iterations=4 "
              "deltas=9,3,0");
    EXPECT_EQ(Rows(*scratch.Find({"tc", 2})),
              "(0, 1) (1, 2) (2, 3) (3, 4) (4, 5) (2, 7) (0, 2) (1, 3) "
              "(1, 7) (2, 4) (3, 5) (0, 3) (0, 7) (1, 4) (2, 5) (0, 4) "
              "(0, 5) (1, 5)");
  }
  {
    Database scratch;
    FixpointStats stats =
        RunRecorded(tc, RecursionMethod::kNaive, &graph, &scratch);
    EXPECT_EQ(Work(stats),
              "examined=148 derivations=96 firings=10 iterations=5 "
              "deltas=6,5,6,1,0");
    EXPECT_EQ(Rows(*scratch.Find({"tc", 2})),
              "(0, 1) (1, 2) (2, 3) (3, 4) (4, 5) (2, 7) (0, 2) (1, 3) "
              "(1, 7) (2, 4) (3, 5) (0, 3) (0, 7) (1, 4) (2, 5) (0, 4) "
              "(1, 5) (0, 5)");
  }

  // Mutual recursion, both disciplines.
  Program even_odd = P(R"(
    even(X) <- zero(X).
    even(X) <- succ(Y, X), odd(Y).
    odd(X)  <- succ(Y, X), even(Y).
  )");
  Database nat;
  nat.GetOrCreate({"zero", 1})->Insert({Term::MakeInt(0)});
  Relation* succ = nat.GetOrCreate({"succ", 2});
  for (int64_t i = 0; i < 6; ++i) {
    succ->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  for (RecursionMethod method :
       {RecursionMethod::kSemiNaive, RecursionMethod::kNaive}) {
    SCOPED_TRACE(RecursionMethodToString(method));
    Database scratch;
    FixpointStats stats = RunRecorded(even_odd, method, &nat, &scratch);
    EXPECT_EQ(Work(stats),
              method == RecursionMethod::kNaive
                  ? "examined=131 derivations=35 firings=24 iterations=8 "
                    "deltas=1,1,1,1,1,1,1,0"
                  : "examined=91 derivations=7 firings=15 iterations=8 "
                    "deltas=1,1,1,1,1,1,0");
    EXPECT_EQ(Rows(*scratch.Find({"even", 1})), "(0) (2) (4) (6)");
    EXPECT_EQ(Rows(*scratch.Find({"odd", 1})), "(1) (3) (5)");
  }

  // A magic-rewritten bound query: the rewritten program runs semi-naive.
  {
    Program p = P(kSgRules);
    Database db;
    size_t nodes = testing::MakeSameGenerationData(2, 2, &db);
    Literal goal = Literal::Make(
        "sg", {Term::MakeInt(static_cast<int64_t>(nodes - 1)),
               Term::MakeVariable("Y")});
    QueryEvalOptions options;
    options.fixpoint.record_iterations = true;
    auto result =
        EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Work(result->stats),
              "examined=33 derivations=10 firings=8 iterations=8 "
              "deltas=1,1,0,2,4,0");
    EXPECT_EQ(Rows(result->answers), "(13, 6) (13, 7) (13, 8) (13, 9)");
  }
}

// The attribution counters are exact. Semi-naive emits every derivation
// straight into its head's full relation, so each one costs exactly one
// dedup probe; the delta rows are the recorded rounds' deltas; and every
// index probe is made either by a literal a firing starts with or right
// after an examined tuple.
TEST(FixpointTest, AttributionCountersOnSemiNaiveSg) {
  Program p = P(kSgRules);
  Database db;
  testing::MakeSameGenerationData(3, 3, &db);
  Database scratch;
  FixpointStats stats =
      RunRecorded(p, RecursionMethod::kSemiNaive, &db, &scratch);
  const EvalCounters& c = stats.counters;
  ASSERT_GT(c.derivations, 0u);
  EXPECT_EQ(c.dedup_probes, c.derivations);
  size_t recorded_deltas = 0;
  for (const FixpointIteration& it : stats.per_iteration) {
    recorded_deltas += it.delta_tuples;
  }
  EXPECT_GT(c.delta_rows, 0u);
  EXPECT_EQ(c.delta_rows, recorded_deltas);
  EXPECT_GT(c.index_probes, 0u);
  EXPECT_LE(c.index_probes, c.tuples_examined + c.rule_firings);

  MetricsRegistry metrics;
  c.ExportTo(&metrics);
  EXPECT_EQ(metrics.counter("engine.dedup_probes")->value(), c.dedup_probes);
  EXPECT_EQ(metrics.counter("engine.index_probes")->value(), c.index_probes);
  EXPECT_EQ(metrics.counter("engine.delta_rows")->value(), c.delta_rows);
  EvalCounters twice = c;
  twice.Add(c);
  EXPECT_EQ(twice.dedup_probes, 2 * c.dedup_probes);
  EXPECT_EQ(twice.index_probes, 2 * c.index_probes);
  EXPECT_EQ(twice.delta_rows, 2 * c.delta_rows);
  EXPECT_NE(c.ToString().find(StrCat("dedup_probes=", c.dedup_probes)),
            std::string::npos);
}

// Each rule is compiled once, when its schedule is built, and that compiled
// rule serves every round and every differentiated occurrence of every run
// of the schedule: a run compiles nothing.
TEST(FixpointTest, CompilesEachRuleOncePerEvaluation) {
  Program p = P(kSgRules);
  Database db;
  testing::MakeSameGenerationData(3, 3, &db);
  auto schedule = FixpointSchedule::Build(p, RecursionMethod::kSemiNaive);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_EQ(schedule->rules_compiled(), p.rules().size());
  FixpointStats first;
  FixpointStats second;
  for (FixpointStats* stats : {&first, &second}) {
    Database scratch;
    ASSERT_TRUE(schedule->Run(&db, &scratch, stats).ok());
  }
  const EvalCounters& c = first.counters;
  EXPECT_GT(first.iterations, 3u);
  EXPECT_EQ(c.rules_compiled, 0u);
  EXPECT_GT(c.rule_firings, p.rules().size());
  EXPECT_EQ(second.counters.rules_compiled, 0u);
  EXPECT_EQ(second.counters.rule_firings, c.rule_firings);
  EXPECT_EQ(second.counters.tuples_examined, c.tuples_examined);

  // Building and running once, EvaluateProgram reports the build's
  // compiles with the run's work.
  Database scratch;
  FixpointStats once =
      RunRecorded(p, RecursionMethod::kSemiNaive, &db, &scratch);
  EXPECT_EQ(once.counters.rules_compiled, p.rules().size());
  EXPECT_EQ(once.counters.rule_firings, c.rule_firings);

  // Only the goal's subprogram is compiled, once per rule.
  Program wider = P(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
    loop(X) <- flat(X, X).
    reach(X, Y) <- up(X, Y).
    reach(X, Y) <- up(X, Z), reach(Z, Y).
  )");
  auto result = EvaluateQuery(wider, &db, L("sg(X, Y)"),
                              RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.counters.rules_compiled, 2u);
  EXPECT_EQ(result->stats.counters.rule_firings, c.rule_firings);

  const EvalCounters& counted = once.counters;
  MetricsRegistry metrics;
  counted.ExportTo(&metrics);
  EXPECT_EQ(metrics.counter("engine.rules_compiled")->value(),
            counted.rules_compiled);
  EXPECT_EQ(metrics.counter("engine.index_rows_built")->value(),
            counted.index_rows_built);
  EvalCounters twice = counted;
  twice.Add(counted);
  EXPECT_EQ(twice.rules_compiled, 2 * counted.rules_compiled);
  EXPECT_EQ(twice.index_rows_built, 2 * counted.index_rows_built);
  EXPECT_NE(counted.ToString().find(
                StrCat("rules_compiled=", counted.rules_compiled)),
            std::string::npos);
  EXPECT_NE(counted.ToString().find(
                StrCat("index_rows_built=", counted.index_rows_built)),
            std::string::npos);
}

// Index rows are counted where a probe builds them: a run over fresh
// relations indexes every row it probes, and a second run over the same
// base relations indexes only its own scratch relations.
TEST(FixpointTest, IndexRowsBuiltSeparateBaseFromScratch) {
  Program p = P("two(X, Z) <- e(X, Y), e(Y, Z).");
  Database db;
  for (int64_t i = 0; i < 5; ++i) {
    db.GetOrCreate({"e", 2})->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  FixpointStats first;
  FixpointStats second;
  for (FixpointStats* stats : {&first, &second}) {
    Database scratch;
    ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db,
                                &scratch, stats)
                    .ok());
  }
  // The second e(Y, Z) is probed on its first column: the first run builds
  // that index over e's 5 rows, the second finds it built.
  EXPECT_EQ(first.counters.index_rows_built, 5u);
  EXPECT_EQ(second.counters.index_rows_built, 0u);
  EXPECT_EQ(first.counters.tuples_examined, second.counters.tuples_examined);
}

// A rule order comes from outside the engine: one that is not a
// permutation of the body is an error, not an out-of-range read. It is
// caught when the schedule is built, before anything runs.
TEST(FixpointTest, InvalidRuleOrderRejected) {
  Program p = P(kAncestorRules);
  Database db;
  testing::MakeTreeParentData(2, 3, &db);
  for (std::vector<size_t> order :
       {std::vector<size_t>{0}, std::vector<size_t>{0, 0},
        std::vector<size_t>{0, 2}}) {
    std::unordered_map<size_t, std::vector<size_t>> orders;
    orders[1] = order;
    auto schedule =
        FixpointSchedule::Build(p, RecursionMethod::kSemiNaive, orders);
    EXPECT_EQ(schedule.status().code(), StatusCode::kInternal)
        << schedule.status();
  }
}

TEST(FixpointTest, NonStratifiedRejected) {
  Program p = P("win(X) <- move(X, Y), not win(Y).");
  Database db, scratch;
  FixpointStats stats;
  Status st =
      EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch, &stats, {});
  EXPECT_FALSE(st.ok());
}

TEST(FixpointTest, IterationGuardTripsOnUnsafeArithmetic) {
  // nat(X+1) <- nat(X): infinite — the guard must stop it.
  Program p = P(R"(
    nat(0).
    nat(Y) <- nat(X), Y = X + 1.
  )");
  // Move the inline fact into the database.
  Database db, scratch;
  Program rules;
  for (const Rule& r : p.rules()) rules.AddRule(r);
  for (const Literal& f : p.facts()) ASSERT_TRUE(db.AddFact(f).ok());
  // nat must count as derived; re-add the fact as a bodiless rule.
  rules.AddRule(Rule(L("nat(0)"), {}));
  FixpointOptions options;
  options.max_iterations = 50;
  FixpointStats stats;
  Status st = EvaluateProgram(rules, RecursionMethod::kSemiNaive, &db,
                              &scratch, &stats, options);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
}

TEST(FixpointTest, ComplexTermsFlowThroughRecursion) {
  // Build lists by recursion over a bounded set: path accumulation.
  Program p = P(R"(
    path(X, Y, [X, Y]) <- edge(X, Y).
    path(X, Z, [X | P]) <- edge(X, Y), path(Y, Z, P).
  )");
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  edge->Insert({Term::MakeInt(1), Term::MakeInt(2)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(3)});
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  Relation* path = scratch.Find({"path", 3});
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->size(), 3u);
  bool found = false;
  for (const Tuple& t : path->tuples()) {
    if (t[2].ToString() == "[1, 2, 3]") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FixpointTest, RuleOrderOverrideChangesWorkNotAnswers) {
  Program p = P("q(X, Z) <- a(X, Y), b(Y, Z), c(Z).");
  Database db;
  testing::MakeRandomRelation("a", 2, 200, 50, 1, &db);
  testing::MakeRandomRelation("b", 2, 200, 50, 2, &db);
  testing::MakeRandomRelation("c", 1, 10, 50, 3, &db);

  Database s1, s2;
  FixpointStats st1, st2;
  ASSERT_TRUE(
      EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &s1, &st1, {})
          .ok());
  FixpointOptions options;
  options.rule_orders[0] = {2, 1, 0};  // start from the selective c
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &s2, &st2,
                              options)
                  .ok());
  EXPECT_EQ(Sorted(*s1.Find({"q", 2})), Sorted(*s2.Find({"q", 2})));
  EXPECT_NE(st1.counters.tuples_examined, st2.counters.tuples_examined);
}

class SgMethodsTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

// Property: all four methods give identical answers on bound sg queries,
// across a sweep of tree shapes.
TEST_P(SgMethodsTest, AllMethodsAgreeOnBoundQuery) {
  auto [fanout, depth] = GetParam();
  Program p = P(kSgRules);
  Database db;
  size_t nodes = testing::MakeSameGenerationData(fanout, depth, &db);
  ASSERT_GT(nodes, 0u);
  // Query: same generation of the first leaf-level node (bound, free).
  // Node ids: the last level starts after all previous levels.
  int64_t probe = static_cast<int64_t>(nodes - 1);
  Literal goal = Literal::Make(
      "sg", {Term::MakeInt(probe), Term::MakeVariable("Y")});

  QueryEvalOptions options;
  options.counting_fallback = false;
  auto naive = EvaluateQuery(p, &db, goal, RecursionMethod::kNaive, options);
  auto semi = EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, options);
  auto magic = EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, options);
  auto counting =
      EvaluateQuery(p, &db, goal, RecursionMethod::kCounting, options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(magic.ok()) << magic.status();
  ASSERT_TRUE(counting.ok()) << counting.status();

  EXPECT_EQ(Sorted(naive->answers), Sorted(semi->answers));
  EXPECT_EQ(Sorted(semi->answers), Sorted(magic->answers));
  EXPECT_EQ(Sorted(magic->answers), Sorted(counting->answers));
  EXPECT_FALSE(magic->answers.empty());

  // The focused methods must examine fewer tuples than full evaluation.
  EXPECT_LE(magic->stats.counters.tuples_examined,
            semi->stats.counters.tuples_examined);
}

INSTANTIATE_TEST_SUITE_P(
    TreeShapes, SgMethodsTest,
    ::testing::Values(std::make_tuple(2, 3), std::make_tuple(2, 5),
                      std::make_tuple(3, 3), std::make_tuple(3, 4),
                      std::make_tuple(4, 3), std::make_tuple(5, 2)));

TEST(MagicTest, TransitiveClosureBoundQueryTouchesLess) {
  Program p = P(kAncestorRules);
  Database db;
  testing::MakeTreeParentData(3, 6, &db);
  Literal goal = L("anc(5, Y)");

  auto semi = EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, {});
  auto magic = EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, {});
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(magic.ok()) << magic.status();
  EXPECT_EQ(Sorted(semi->answers), Sorted(magic->answers));
  EXPECT_LT(magic->stats.counters.tuples_examined,
            semi->stats.counters.tuples_examined / 2);
}

TEST(CountingTest, FallsBackOnCyclicData) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeCycle(10, &db);
  QueryEvalOptions options;
  options.fixpoint.max_iterations = 500;
  auto result =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kCounting, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->method_used, RecursionMethod::kMagic);
  EXPECT_FALSE(result->note.empty());
  EXPECT_EQ(result->answers.size(), 10u);
}

TEST(CountingTest, InapplicableNonLinearFallsBack) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- tc(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeRandomDag(30, 2, 7, &db);
  auto result =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kCounting, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->method_used, RecursionMethod::kMagic);
}

TEST(QueryEvalTest, BaseRelationQueryNeedsNoRules) {
  Program p;
  Database db;
  testing::MakeTreeParentData(2, 3, &db);
  auto result =
      EvaluateQuery(p, &db, L("par(1, Y)"), RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 1u);
}

/// Golden-value test for the per-iteration fixpoint telemetry: a 4-node
/// cycle (1→2→3→4→1) closed transitively, evaluated under all four
/// recursion methods with record_iterations on. The data is tiny and fully
/// deterministic, so the exact round-by-round delta trajectory is part of
/// the contract: both disciplines record their final empty round, naive
/// additionally re-derives everything each round, and the rewrite-based
/// methods
/// report their rewritten cliques under the rewrite's method label
/// (counting falls back to magic on cyclic data, so its rounds are
/// magic's).
TEST(QueryEvalTest, IterationTelemetryGoldenValuesOnCycle) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  for (int64_t i = 1; i <= 4; ++i) {
    edge->Insert({Term::MakeInt(i), Term::MakeInt(i % 4 + 1)});
  }
  QueryEvalOptions options;
  options.fixpoint.record_iterations = true;

  auto run = [&](RecursionMethod method) {
    auto result = EvaluateQuery(p, &db, L("tc(1, Y)"), method, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  };
  auto trajectory = [](const QueryResult& r) {
    // (clique, method, iteration, delta) rows; wall_ms is unpinnable.
    std::vector<std::string> rows;
    for (const FixpointIteration& it : r.stats.per_iteration) {
      rows.push_back(StrCat(it.clique, " ", it.method, " #", it.iteration,
                            " +", it.delta_tuples));
    }
    return rows;
  };

  // Naive: every round recomputes everything; deltas 4,4,4,4 then the
  // empty fixpoint-detection round is recorded too. All answers: 16 pairs.
  QueryResult naive = run(RecursionMethod::kNaive);
  EXPECT_EQ(naive.answers.size(), 4u);
  EXPECT_EQ(trajectory(naive),
            (std::vector<std::string>{
                "tc/2 naive #1 +4", "tc/2 naive #2 +4", "tc/2 naive #3 +4",
                "tc/2 naive #4 +4", "tc/2 naive #5 +0"}));

  // Semi-naive: the exit-rule seeding is not a recorded round, so the
  // rounds are the three delta joins (path lengths 2..4) plus the empty
  // round that detects convergence.
  QueryResult seminaive = run(RecursionMethod::kSemiNaive);
  EXPECT_EQ(seminaive.answers.size(), 4u);
  EXPECT_EQ(trajectory(seminaive),
            (std::vector<std::string>{
                "tc/2 seminaive #1 +4", "tc/2 seminaive #2 +4",
                "tc/2 seminaive #3 +4", "tc/2 seminaive #4 +0"}));

  // Magic: the rewritten program's cliques carry the magic label. With the
  // query bound to node 1, the magic set floods the whole cycle.
  QueryResult magic = run(RecursionMethod::kMagic);
  EXPECT_EQ(magic.answers.size(), 4u);
  ASSERT_FALSE(magic.stats.per_iteration.empty());
  for (const FixpointIteration& it : magic.stats.per_iteration) {
    EXPECT_EQ(it.method, "magic");
  }
  const std::vector<std::string> magic_rows = trajectory(magic);

  // Counting: cyclic data trips the ascent guard, so evaluation falls back
  // to magic — identical answers AND an identical round trajectory, every
  // row labeled magic (the rounds belong to the fallback evaluation).
  QueryResult counting = run(RecursionMethod::kCounting);
  EXPECT_EQ(counting.method_used, RecursionMethod::kMagic);
  EXPECT_EQ(counting.answers.size(), 4u);
  EXPECT_EQ(trajectory(counting), magic_rows);
}

// An all-free goal's answers are the goal relation itself, moved out of
// the query's scratch: the same tuples in the same order as SelectMatching
// over that relation, detached from the per-query accountant, which holds
// no bytes once the query returns. Goals that constrain a row still go
// through SelectMatching.
TEST(QueryEvalTest, AllFreeAnswersAreTheGoalRelation) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeRandomDag(30, 2, 7, &db);
  testing::MakeCycle(3, &db);  // adds tc(X, X) rows
  Database reference_scratch;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db,
                              &reference_scratch, nullptr)
                  .ok());
  Relation* reference = reference_scratch.Find({"tc", 2});

  for (const char* goal_text : {"tc(X, Y)", "tc(X, X)", "tc(0, Y)"}) {
    SCOPED_TRACE(goal_text);
    const Literal goal = L(goal_text);
    ResourceAccountant accountant;
    QueryEvalOptions options;
    options.fixpoint.trace.accountant = &accountant;
    auto result =
        EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, options);
    ASSERT_TRUE(result.ok()) << result.status();
    Relation expected = SelectMatching(reference, goal);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(result->answers.tuples(), expected.tuples());
    EXPECT_EQ(AnswerFingerprint(result->answers), AnswerFingerprint(expected));
    EXPECT_EQ(result->answers.accountant(), nullptr);
    EXPECT_GT(accountant.peak_bytes(), 0u);
    EXPECT_EQ(accountant.current_bytes(), 0u);
    // The relation SelectMatching builds is named "answers"; the goal
    // relation keeps its predicate's name.
    const bool all_free = std::string(goal_text) == "tc(X, Y)";
    EXPECT_EQ(result->answers.name(), all_free ? "tc" : "answers");
  }
}

/// The answers of `result` in row order, then its exact work (compiles
/// aside).
std::string Served(const Result<QueryResult>& result) {
  if (!result.ok()) return result.status().ToString();
  const EvalCounters& c = result->stats.counters;
  return StrCat(Rows(result->answers), " | examined=", c.tuples_examined,
                " derivations=", c.derivations, " inserts=", c.inserts,
                " firings=", c.rule_firings, " delta_rows=", c.delta_rows,
                " iterations=", result->stats.iterations);
}

// One prepared query, run for two goals of its shape in turn: every run
// binds its own parameters and starts from nothing the previous run left,
// so each answers (rows, row order and work) exactly as a query prepared
// for it alone does.
TEST(FixpointTest, PreparedRunsInterleaveParameters) {
  Program p = P(kSgRules);
  Database db;
  testing::MakeSameGenerationData(3, 3, &db);
  for (RecursionMethod method :
       {RecursionMethod::kMagic, RecursionMethod::kCounting,
        RecursionMethod::kSemiNaive}) {
    SCOPED_TRACE(RecursionMethodToString(method));
    auto prepared = PrepareQuery(p, L("sg(0, Y)"), method);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (const char* goal_text :
         {"sg(13, Y)", "sg(40, Y)", "sg(13, Y)", "sg(40, Y)"}) {
      SCOPED_TRACE(goal_text);
      const Literal goal = L(goal_text);
      auto run = RunPrepared(*prepared, p, &db, goal);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->stats.counters.rules_compiled, 0u);
      EXPECT_FALSE(run->answers.empty());
      EXPECT_EQ(Served(run), Served(EvaluateQuery(p, &db, goal, method)));
    }
  }
}

// A prepared query owns its program on the heap, where its compiled rules
// point: moving it, or the vector holding it, leaves them valid.
TEST(QueryEvalTest, MovedPreparedQueryRuns) {
  Program p = P(kAncestorRules);
  Database db;
  testing::MakeTreeParentData(2, 4, &db);
  const Literal goal = L("anc(1, Y)");
  const std::string expected =
      Served(EvaluateQuery(p, &db, goal, RecursionMethod::kMagic));
  std::vector<PreparedQuery> held;
  {
    auto prepared = PrepareQuery(P(kAncestorRules), goal,
                                 RecursionMethod::kMagic);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    held.push_back(std::move(prepared).value());
  }
  for (int i = 0; i < 8; ++i) held.emplace_back();  // reallocates
  PreparedQuery moved = std::move(held.front());
  held.clear();
  EXPECT_EQ(Served(RunPrepared(moved, p, &db, goal)), expected);
}

TEST(QueryEvalTest, ReachableSubprogramPrunesUnrelatedRules) {
  Program p = P(R"(
    a(X) <- base1(X).
    b(X) <- base2(X).
    c(X) <- a(X).
  )");
  Program sub = ReachableSubprogram(p, L("c(X)"));
  EXPECT_EQ(sub.rules().size(), 2u);
  EXPECT_TRUE(sub.IsDerived({"c", 1}));
  EXPECT_TRUE(sub.IsDerived({"a", 1}));
  EXPECT_FALSE(sub.IsDerived({"b", 1}));
}

}  // namespace
}  // namespace ldl
