#include "ldl/ldl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/linter.h"
#include "base/rng.h"
#include "base/strings.h"
#include "obs/feedback.h"
#include "obs/metrics.h"
#include "optimizer/project_pushdown.h"
#include "testing/difftest.h"
#include "testing/program_gen.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

std::vector<Tuple> Sorted(const Relation& r) {
  std::vector<Tuple> out = r.tuples();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LdlSystemTest, QuickstartAncestor) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    par(bart, homer).
    par(lisa, homer).
    par(homer, abe).
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )")
                  .ok());
  auto answer = sys.Query("anc(bart, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);  // homer, abe
  EXPECT_TRUE(answer->plan.safe);
}

TEST(LdlSystemTest, OptimizedMatchesUnoptimizedAnswers) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )")
                  .ok());
  testing::MakeSameGenerationData(3, 4, sys.database());
  sys.RefreshStatistics();

  auto goal = ParseLiteral("sg(50, Y)");
  ASSERT_TRUE(goal.ok());
  auto optimized = sys.Query(*goal);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  auto baseline = sys.EvaluateUnoptimized(*goal, RecursionMethod::kSemiNaive);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_EQ(Sorted(optimized->answers), Sorted(baseline->answers));
  // The optimizer must not do more execution work than the full fixpoint.
  EXPECT_LE(optimized->exec_stats.counters.tuples_examined,
            baseline->stats.counters.tuples_examined);
}

TEST(LdlSystemTest, BoundQueryGetsFocusedMethodAndDoesLessWork) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )")
                  .ok());
  testing::MakeTreeParentData(3, 7, sys.database());
  sys.RefreshStatistics();

  auto goal = ParseLiteral("anc(7, Y)");
  ASSERT_TRUE(goal.ok());
  auto answer = sys.Query(*goal);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->plan.top_method == RecursionMethod::kMagic ||
              answer->plan.top_method == RecursionMethod::kCounting);
  auto full = sys.EvaluateUnoptimized(*goal, RecursionMethod::kSemiNaive);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(Sorted(answer->answers), Sorted(full->answers));
  EXPECT_LT(answer->exec_stats.counters.tuples_examined,
            full->stats.counters.tuples_examined / 10);
}

TEST(LdlSystemTest, UnsafeQueryRejectedWithDiagnostic) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("bigger(X, Y) <- X > Y.").ok());
  auto answer = sys.Query("bigger(X, 3)");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnsafe);
  EXPECT_NE(answer.status().message().find("bigger"), std::string::npos);
  // Fully bound form is fine.
  auto bound = sys.Query("bigger(5, 3)");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->answers.size(), 1u);
}

TEST(LdlSystemTest, ArithmeticAndComparisonQueries) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    item(widget, 5).
    item(gadget, 50).
    item(doodad, 500).
    pricey(X) <- item(X, P), P > 40.
    taxed(X, T) <- item(X, P), T = P * 2.
  )")
                  .ok());
  auto pricey = sys.Query("pricey(X)");
  ASSERT_TRUE(pricey.ok()) << pricey.status();
  EXPECT_EQ(pricey->answers.size(), 2u);
  auto taxed = sys.Query("taxed(widget, T)");
  ASSERT_TRUE(taxed.ok()) << taxed.status();
  ASSERT_EQ(taxed->answers.size(), 1u);
  EXPECT_EQ(taxed->answers.tuples()[0][1].int_value(), 10);
}

TEST(LdlSystemTest, TextualOrderUnsafeButSystemReorders) {
  // The declarative promise: this rule is unusable under Prolog's textual
  // order but the optimizer finds the safe order silently.
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    price(widget, 5).
    doubled(X, Y) <- Y = P * 2, price(X, P).
  )")
                  .ok());
  auto answer = sys.Query("doubled(widget, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][1].int_value(), 10);
}

TEST(LdlSystemTest, NegationQueries) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    person(homer). person(ned).
    married(homer).
    bachelor(X) <- person(X), not married(X).
  )")
                  .ok());
  auto answer = sys.Query("bachelor(X)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][0].text(), "ned");
}

TEST(LdlSystemTest, ExplainShowsPlan) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )")
                  .ok());
  testing::MakeTreeParentData(2, 4, sys.database());
  auto text = sys.Explain("anc(3, Y)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("QUERY"), std::string::npos);
  EXPECT_NE(text->find("METHOD"), std::string::npos);
}

// rule_orders keeps q's order for the free binding, but magic runs q.bf
// with the builtin first: EXPLAIN must show the SIP that executes.
TEST(LdlSystemTest, ExplainShowsTheSipMagicRuns) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    r(1). r(2). r(3). r(4). r(5). r(6). r(7). r(8). r(9). r(10).
    q(X, Y) <- Y = X + 1, r(X).
    p(X, Y) <- r(X), q(X, Y).
  )")
                  .ok());
  auto text = sys.Explain("p(3, Y)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("METHOD  magic"), std::string::npos) << *text;
  EXPECT_NE(text->find("SIP 0 bf  q(X, Y) <- Y = X + 1, r(X)."),
            std::string::npos)
      << *text;
}

TEST(LdlSystemTest, CheckSafetyReportsProblems) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    nat(0).
    nat(Y) <- nat(X), Y = X + 1.
  )")
                  .ok());
  SafetyReport report = sys.CheckSafety("nat(N)");
  EXPECT_FALSE(report.safe);
  EXPECT_FALSE(report.problems.empty());
}

TEST(LdlSystemTest, BaseRelationQuery) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("edge(1, 2). edge(1, 3).").ok());
  auto answer = sys.Query("edge(1, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);
  EXPECT_FALSE(sys.Query("nosuch(X)").ok());
}

TEST(LdlSystemTest, PendingQueriesFromProgramText) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    p(1). p(2).
    q(X) <- p(X).
    q(X)?
  )")
                  .ok());
  ASSERT_EQ(sys.pending_queries().size(), 1u);
  auto answer = sys.Query(sys.pending_queries()[0].goal);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->answers.size(), 2u);
}

TEST(LdlSystemTest, ComplexTermsEndToEnd) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    employee(person("alice", 30), dept(eng)).
    employee(person("bob", 40), dept(sales)).
    engineer(N) <- employee(person(N, A), dept(eng)).
  )")
                  .ok());
  auto answer = sys.Query("engineer(N)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][0].text(), "alice");
}

TEST(LdlSystemTest, MultipleCliquesAndStrata) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    reach(X, Y) <- edge(X, Y).
    reach(X, Y) <- edge(X, Z), reach(Z, Y).
    same_scc(X, Y) <- reach(X, Y), reach(Y, X).
  )")
                  .ok());
  Relation* edge = sys.database()->GetOrCreate({"edge", 2});
  edge->Insert({Term::MakeInt(1), Term::MakeInt(2)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(1)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(3)});
  sys.RefreshStatistics();
  auto answer = sys.Query("same_scc(1, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);  // 1 and 2
}

PredicateId Pred(const char* literal) {
  return ParseLiteral(literal)->predicate();
}

// A clause the program rejects must change nothing: not the rules (or every
// later clause fails with the same error), not the facts, and not the
// statistics (which would otherwise go stale over the extra rows).
TEST(LdlSystemTest, RejectedClauseChangesNothing) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("q(a). q(b). p(X) <- q(X).").ok());
  EXPECT_EQ(sys.statistics().Get(Pred("q(X)")).cardinality, 2);
  const size_t rules = sys.program().rules().size();

  const Status bad = sys.AddClause("q(c). p(X, Y) <- q(X), q(Y).");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument) << bad;
  EXPECT_EQ(sys.program().rules().size(), rules);
  EXPECT_EQ(sys.database()->Find(Pred("q(X)"))->size(), 2u);
  EXPECT_FALSE(sys.AddClause("q(e). p(X, Y)?").ok());  // bad query form
  EXPECT_EQ(sys.pending_queries().size(), 0u);
  EXPECT_EQ(sys.database()->Find(Pred("q(X)"))->size(), 2u);
  // A clause checked only against the arities already in use: its new
  // predicate r/1 is not remembered when the clause is rejected.
  EXPECT_FALSE(sys.AddClause("r(X) <- q(X, X).").ok());
  ASSERT_TRUE(sys.AddClause("r(X, Y) <- q(X), q(Y).").ok());
  EXPECT_FALSE(sys.AddClause("s(X) <- r(X).").ok());
  EXPECT_EQ(sys.program().rules().size(), rules + 1);

  ASSERT_TRUE(sys.AddClause("q(d).").ok());
  const Relation* q = sys.database()->Find(Pred("q(X)"));
  EXPECT_EQ(q->size(), 3u);
  EXPECT_FALSE(q->Contains({Term::MakeSymbol("c")}));
  EXPECT_EQ(sys.statistics().Get(Pred("q(X)")).cardinality, 3);
  auto answer = sys.Query("p(X)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 3u);
}

void ExpectSameStatistics(const Statistics& got, const Statistics& want) {
  ASSERT_EQ(got.Predicates(), want.Predicates());
  for (const PredicateId& pred : want.Predicates()) {
    EXPECT_EQ(got.Get(pred).cardinality, want.Get(pred).cardinality)
        << pred.ToString();
    EXPECT_EQ(got.Get(pred).distinct, want.Get(pred).distinct)
        << pred.ToString();
  }
}

// Statistics maintained across single-fact writes equal a fresh collection
// over the same facts, and each refresh bumps the epoch by exactly one.
TEST(LdlSystemTest, StatisticsAfterWritesMatchFreshCollect) {
  const std::string rules =
      "sg(X, Y) <- flat(X, Y).\n"
      "sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n";
  std::string facts = "flat(a, b). up(c, a). dn(b, d).\n";
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(rules + facts).ok());
  uint64_t epoch = sys.statistics().epoch();
  EXPECT_EQ(epoch, 1u);
  Rng rng(42);
  for (int k = 0; k < 60; ++k) {
    const char* preds[] = {"up", "dn", "flat"};
    const std::string fact =
        StrCat(preds[rng.Uniform(3)], "(n", rng.Uniform(12), ", n",
               rng.Uniform(12), ").");  // repeats some facts
    ASSERT_TRUE(sys.AddClause(fact).ok()) << fact;
    facts += fact + "\n";
    if (k % 3 == 0) continue;  // let some writes batch into one refresh
    if (k % 3 == 1) {
      ASSERT_TRUE(sys.Query("sg(n1, Y)").ok());
    }
    EXPECT_EQ(sys.statistics().epoch(), ++epoch) << "after write " << k;
    EXPECT_EQ(sys.statistics().epoch(), epoch) << "no write, no refresh";

    LdlSystem fresh;
    ASSERT_TRUE(fresh.LoadProgram(rules + facts).ok());
    ExpectSameStatistics(sys.statistics(),
                         Statistics::Collect(*fresh.database()));
  }
}

// Two fully independent LdlSystem instances evaluated from two OS threads:
// the TSan pin for the reentrancy contract in engine/builtins.h (no mutable
// static state anywhere on the evaluation path).
/// The chain b(1). p0(X) <- b(X). pi(X) <- p{i-1}(X). of `links`
/// predicates.
std::string PredicateChain(size_t links) {
  std::ostringstream text;
  text << "b(1).\np0(X) <- b(X).\n";
  for (size_t i = 1; i < links; ++i) {
    text << "p" << i << "(X) <- p" << i - 1 << "(X).\n";
  }
  return text.str();
}

// NR-OPT descends once per link of a chain of derived predicates; past
// Optimizer::kMaxDescent links the query gets a typed error instead of a
// stack overflow.
TEST(LdlSystemTest, DeepPredicateChainIsATypedError) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(PredicateChain(5000)).ok());
  auto answer = sys.Query("p4999(X)");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status();
  EXPECT_NE(answer.status().message().find("deeper than 1024"),
            std::string::npos)
      << answer.status();
}

// A rule whose patterns hold a 400k-element list: every walk of a rule
// term (variable collection, linting, analysis, planning, the compiled
// match and build codes) loops down the list instead of recursing.
TEST(LdlSystemTest, LongListInARuleLoadsLintsAndAnswers) {
  std::string items;
  std::vector<Term> values;
  for (int i = 0; i < 400000; ++i) {
    StrAppend(&items, i > 0 ? "," : "", i);
    values.push_back(Term::MakeInt(i));
  }
  const std::string program =
      StrCat("p([", items, ",7]).\n", "q(X) <- p([", items, "|X]).\n",
             "s(1).\n", "r([", items, "|X]) <- s(X).\n");
  auto parsed = ParseProgram(program);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  DiagnosticSink sink;
  ProgramLinter(*parsed).Lint(&sink);
  ProgramAnalyzer(*parsed).Lint(&sink);
  EXPECT_FALSE(sink.HasErrors());

  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(program).ok());
  auto matched = sys.Query("q(X)");
  ASSERT_TRUE(matched.ok()) << matched.status();
  EXPECT_EQ(Sorted(matched->answers),
            std::vector<Tuple>{{Term::MakeList({Term::MakeInt(7)})}});
  auto built = sys.Query("r(L)");
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_EQ(built->answers.size(), 1u);
  // Compared without printing: a failure would render 400k elements.
  EXPECT_TRUE(Sorted(built->answers)[0][0] ==
              Term::MakeList(values, Term::MakeInt(1)));
}

TEST(LdlSystemTest, ChainOf500PredicatesAnswers) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(PredicateChain(500)).ok());
  auto answer = sys.Query("p499(X)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(Sorted(answer->answers), std::vector<Tuple>{{Term::MakeInt(1)}});
}

TEST(LdlSystemTest, ConcurrentIndependentSystems) {
  constexpr const char* kSg = R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )";
  auto worker = [kSg](size_t fanout, size_t* rows, bool* ok) {
    LdlSystem sys;
    *ok = sys.LoadProgram(kSg).ok();
    if (!*ok) return;
    testing::MakeSameGenerationData(fanout, 3, sys.database());
    sys.RefreshStatistics();
    for (int i = 0; i < 8; ++i) {
      auto answer = sys.Query("sg(X, Y)");
      if (!answer.ok() || answer->answers.empty()) {
        *ok = false;
        return;
      }
      *rows = answer->answers.size();
    }
  };
  size_t rows_a = 0;
  size_t rows_b = 0;
  bool ok_a = false;
  bool ok_b = false;
  std::thread ta(worker, 2, &rows_a, &ok_a);
  std::thread tb(worker, 3, &rows_b, &ok_b);
  ta.join();
  tb.join();
  ASSERT_TRUE(ok_a);
  ASSERT_TRUE(ok_b);

  // Cross-check each concurrent result against a quiet single-threaded
  // evaluation of the same workload.
  auto program = ParseProgram(kSg);
  ASSERT_TRUE(program.ok()) << program.status();
  auto goal = ParseLiteral("sg(X, Y)");
  ASSERT_TRUE(goal.ok());
  for (auto [fanout, rows] : {std::pair<size_t, size_t>{2, rows_a},
                              std::pair<size_t, size_t>{3, rows_b}}) {
    Database db;
    testing::MakeSameGenerationData(fanout, 3, &db);
    auto quiet = EvaluateQuery(*program, &db, *goal,
                               RecursionMethod::kSemiNaive, {});
    ASSERT_TRUE(quiet.ok()) << quiet.status();
    EXPECT_EQ(rows, quiet->answers.size()) << "fanout " << fanout;
  }
}

// --- prepared plans (DESIGN.md §22) ----------------------------------------

/// What Explain renders for a served plan, over the program the system
/// planned it against (the projection-pushed rule base, as with default
/// options), with the search statistics zeroed: a cache hit ran no search.
std::string ExplainServed(const LdlSystem& sys, const QueryAnswer& answer) {
  Program working = sys.program();
  if (working.IsDerived(answer.plan.goal.predicate())) {
    auto projected = PushProjections(sys.program(), answer.plan.goal);
    if (projected.ok()) working = std::move(projected->rewritten);
  }
  QueryPlan plan = answer.plan;
  plan.search_stats = PlanSearchStats{};
  return plan.Explain(working);
}

/// `goal` with other constants of the fact base in its bound arguments.
Literal Sibling(LdlSystem* sys, const Literal& goal) {
  std::set<Term> domain;
  for (const PredicateId& pred : sys->database()->Predicates()) {
    for (const Tuple& t : sys->database()->Find(pred)->tuples()) {
      domain.insert(t.begin(), t.end());
    }
  }
  return testing::SiblingGoal(goal, domain);
}

struct CacheCase {
  std::string name;
  std::string text;
  Literal goal;
};

/// Every goal embedded in examples/*.ldl, and the query of program_gen
/// seeds 1-20.
std::vector<CacheCase> CacheCases() {
  std::vector<CacheCase> cases;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(LDLOPT_SOURCE_DIR) + "/examples")) {
    if (entry.path().extension() == ".ldl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    auto program = ParseProgram(text.str());
    EXPECT_TRUE(program.ok()) << path;
    if (!program.ok()) continue;
    for (const QueryForm& query : program->queries()) {
      cases.push_back({path.filename().string(), text.str(), query.goal});
    }
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    testing::GeneratedProgram prog = testing::GenerateProgram(&rng, {});
    cases.push_back({StrCat("program_gen.", seed), prog.ToLdl(), prog.query});
  }
  return cases;
}

/// Serves `goal` on `warm` (which has served its shape before, so the plan
/// comes from the cache) and on a fresh system over `text`: the plans must
/// render and fingerprint identically, and execute identically.
void ExpectCachedMatchesFresh(LdlSystem* warm, const std::string& text,
                              const Literal& goal, const std::string& name) {
  SCOPED_TRACE(StrCat(name, ": ", goal.ToString()));
  auto cached = warm->Query(goal);
  LdlSystem fresh;
  ASSERT_TRUE(fresh.LoadProgram(text).ok());
  auto planned = fresh.Query(goal);
  ASSERT_EQ(cached.ok(), planned.ok());
  if (!cached.ok()) return;
  const bool derived = warm->program().IsDerived(goal.predicate());
  EXPECT_EQ(cached->plan_cached, derived);
  EXPECT_FALSE(planned->plan_cached);
  EXPECT_EQ(ExplainServed(*warm, *cached), ExplainServed(fresh, *planned));
  EXPECT_EQ(cached->plan.Fingerprint(), planned->plan.Fingerprint());
  const EvalCounters& a = cached->exec_stats.counters;
  const EvalCounters& b = planned->exec_stats.counters;
  EXPECT_EQ(a.tuples_examined, b.tuples_examined);
  EXPECT_EQ(a.derivations, b.derivations);
  EXPECT_EQ(cached->exec_stats.iterations, planned->exec_stats.iterations);
  EXPECT_EQ(cached->note, planned->note);
  EXPECT_EQ(CanonicalAnswers(cached->answers),
            CanonicalAnswers(planned->answers));
}

// The plan cache is keyed on (predicate, adornment) alone, so nothing the
// plan or the prepared rewrite holds may depend on the goal's constants:
// asked again, or with other constants, a goal gets the plan a fresh
// system makes for it.
TEST(LdlSystemTest, CachedPlansMatchFreshPlans) {
  const std::vector<CacheCase> cases = CacheCases();
  ASSERT_GE(cases.size(), 24u);
  size_t siblings = 0;
  for (const CacheCase& c : cases) {
    LdlSystem warm;
    ASSERT_TRUE(warm.LoadProgram(c.text).ok()) << c.name;
    auto first = warm.Query(c.goal);
    if (first.ok()) {
      EXPECT_FALSE(first->plan_cached);
    }
    ExpectCachedMatchesFresh(&warm, c.text, c.goal, c.name);
    const Literal sibling = Sibling(&warm, c.goal);
    if (!(sibling == c.goal)) {
      ++siblings;
      ExpectCachedMatchesFresh(&warm, c.text, sibling, c.name);
    }
  }
  EXPECT_GT(siblings, 10u);
}

constexpr char kAncestor[] = R"(
  par(a, b). par(b, c). par(c, d). par(b, e).
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
)";

bool Cached(LdlSystem* sys, const std::string& goal) {
  auto answer = sys->Query(goal);
  EXPECT_TRUE(answer.ok()) << goal << ": " << answer.status();
  return answer.ok() && answer->plan_cached;
}

TEST(LdlSystemTest, PlanCacheInvalidation) {
  MetricsRegistry metrics;
  OptimizerOptions options;
  options.trace.metrics = &metrics;
  LdlSystem sys(options);
  ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
  EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  EXPECT_TRUE(Cached(&sys, "anc(c, W)"));   // same shape, other constant
  EXPECT_FALSE(Cached(&sys, "anc(X, Y)"));  // another adornment
  EXPECT_FALSE(Cached(&sys, "anc(X, d)"));

  // A new rule changes the program the plans were made for.
  ASSERT_TRUE(sys.AddClause("anc(X, Y) <- par(Y, X), X = zz.").ok());
  EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  // A fact dirties the statistics: the next query re-collects them under a
  // new epoch. par grows from 4 to 5 rows, within the keep factor, so the
  // plan stays (PlanKeptWhileStatisticsStayWithinFactor has the rest).
  ASSERT_TRUE(sys.AddClause("par(d, f).").ok());
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  sys.RefreshStatistics();
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  // New options.
  sys.set_options(options);
  EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));

  EXPECT_EQ(metrics.counter("ldl.plan_cache.hits")->value(), 6u);
  EXPECT_EQ(metrics.counter("ldl.plan_cache.misses")->value(), 5u);
  EXPECT_EQ(metrics.counter("ldl.plan_cache.evictions")->value(), 0u);
  EXPECT_EQ(metrics.counter("ldl.plan_cache.dropped")->value(), 0u);
}

// A statistics refresh keeps a cached plan while every statistic it read
// stays strictly within LdlSystem::kPlanKeepFactor of its value at planning
// time, and drops it otherwise. A kept plan serves with the plan and epoch
// it was made under, and answers as a fresh plan would.
TEST(LdlSystemTest, PlanKeptWhileStatisticsStayWithinFactor) {
  ASSERT_EQ(LdlSystem::kPlanKeepFactor, 2.0);
  MetricsRegistry metrics;
  OptimizerOptions options;
  options.trace.metrics = &metrics;
  QueryLog log;
  LdlSystem sys(options);
  sys.set_query_log(&log);
  // par has 4 rows; adopted is read by a rule but has no rows, so no
  // statistics.
  ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
  ASSERT_TRUE(sys.AddClause("anc(X, Y) <- adopted(X, Y).").ok());
  auto expect_answers = [&sys](const QueryAnswer& answer) {
    auto reference =
        sys.EvaluateUnoptimized(answer.plan.goal, RecursionMethod::kSemiNaive);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(CanonicalAnswers(answer.answers),
              CanonicalAnswers(reference->answers));
  };
  auto first = sys.Query("anc(a, Y)");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan_cached);
  const uint64_t planned = first->plan_epoch;
  EXPECT_EQ(planned, sys.statistics().epoch());

  // One insert: par grows to 5 rows, the plan is kept.
  ASSERT_TRUE(sys.AddClause("par(e, f).").ok());
  auto kept = sys.Query("anc(a, Y)");
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(kept->plan_cached);
  EXPECT_EQ(kept->plan.Fingerprint(), first->plan.Fingerprint());
  EXPECT_EQ(kept->plan_epoch, planned);
  EXPECT_LT(kept->plan_epoch, sys.statistics().epoch());
  EXPECT_EQ(kept->answers.size(), 5u);  // b, c, d, e, f
  expect_answers(*kept);
  {
    const std::vector<QueryLogRecord> records = log.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].plan_epoch, records[0].stats_epoch);
    EXPECT_TRUE(records[1].plan_cached);
    EXPECT_EQ(records[1].plan_epoch, planned);
    EXPECT_LT(records[1].plan_epoch, records[1].stats_epoch);
    EXPECT_EQ(records[1].plan_fingerprint, records[0].plan_fingerprint);
  }

  // Doubling: par reaches 8 rows, twice the 4 the plan was costed under
  // (and 7 distinct parents, more than twice 3).
  ASSERT_TRUE(sys.AddClause("par(f, g). par(g, h). par(h, i).").ok());
  auto doubled = sys.Query("anc(a, Y)");
  ASSERT_TRUE(doubled.ok()) << doubled.status();
  EXPECT_FALSE(doubled->plan_cached);
  EXPECT_EQ(doubled->plan_epoch, sys.statistics().epoch());
  expect_answers(*doubled);
  EXPECT_EQ(metrics.counter("ldl.plan_cache.dropped")->value(), 1u);

  // A first row in a body relation that had no statistics.
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  ASSERT_TRUE(sys.AddClause("adopted(i, j).").ok());
  auto adopted = sys.Query("anc(a, Y)");
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_FALSE(adopted->plan_cached);
  expect_answers(*adopted);
  EXPECT_EQ(metrics.counter("ldl.plan_cache.dropped")->value(), 2u);

  // An explicit refresh after writes through database() follows the same
  // rule: a write is unseen until the refresh, one row keeps the plan and
  // growing adopted from 1 row to 2 drops it.
  auto write = [&sys](const char* fact) {
    ASSERT_TRUE(sys.database()->AddFact(*ParseLiteral(fact)).ok());
  };
  write("par(j, k)");
  sys.RefreshStatistics();
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  write("adopted(k, l)");
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  sys.RefreshStatistics();
  auto refreshed = sys.Query("anc(a, Y)");
  ASSERT_TRUE(refreshed.ok()) << refreshed.status();
  EXPECT_FALSE(refreshed->plan_cached);
  expect_answers(*refreshed);
  EXPECT_EQ(metrics.counter("ldl.plan_cache.dropped")->value(), 3u);

  // Rules, options and the feedback loop still clear everything.
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  ASSERT_TRUE(sys.AddClause("anc(X, Y) <- adopted(Y, X).").ok());
  EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  sys.set_options(options);
  EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  sys.set_feedback(nullptr);
  EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
  EXPECT_EQ(metrics.counter("ldl.plan_cache.dropped")->value(), 3u);
}

// EXPLAIN ANALYZE of a plan kept across a refresh says which statistics
// epoch it was planned under, and prices the plan that ran.
TEST(LdlSystemTest, ExplainAnalyzeNamesTheEpochOfAKeptPlan) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
  auto fresh = sys.AnalyzeCalibrated("anc(a, Y)");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->text.find("planned under"), std::string::npos)
      << fresh->text;
  ASSERT_TRUE(sys.AddClause("par(e, f).").ok());
  auto kept = sys.AnalyzeCalibrated("anc(a, Y)");
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(kept->answer.plan_cached);
  EXPECT_EQ(kept->answer.plan_epoch, 1u);
  EXPECT_NE(kept->text.find("planned under statistics epoch 1 (now 2)"),
            std::string::npos)
      << kept->text;
  EXPECT_EQ(kept->report.regret().est_cost_chosen,
            fresh->report.regret().est_cost_chosen);
  EXPECT_EQ(kept->answer.answers.size(), 5u);
}

// Right-linear ancestor asked with its second argument bound: the
// recursive call repeats the bound argument, so counting does not apply
// (its ascent could never converge) and the optimizer chooses magic. No
// query runs out the divergence guard, and a hit compiles nothing.
TEST(LdlSystemTest, RightLinearAncestorAtFbIsNotCounted) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "hit" : "miss");
    auto answer = sys.Query("anc(X, d)");
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->plan_cached, cached);
    EXPECT_NE(answer->plan.top_method, RecursionMethod::kCounting);
    EXPECT_EQ(answer->note.find("counting diverged"), std::string::npos)
        << answer->note;
    EXPECT_EQ(answer->answers.size(), 3u);  // a, b, c
    if (cached) {
      EXPECT_EQ(answer->exec_stats.counters.rules_compiled, 0u);
    }
  }
}

// Facts closing a cycle after a counting plan was cached: the kept plan
// diverges at run time and falls back to magic, with the right answers.
TEST(LdlSystemTest, KeptCountingPlanFallsBackWhenAnInsertClosesACycle) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    e(0, 1). e(1, 2). e(2, 3).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
  )").ok());
  auto acyclic = sys.Query("tc(0, Y)");
  ASSERT_TRUE(acyclic.ok()) << acyclic.status();
  ASSERT_EQ(acyclic->plan.top_method, RecursionMethod::kCounting);
  EXPECT_EQ(acyclic->note, "");
  ASSERT_TRUE(sys.AddClause("e(3, 0).").ok());
  auto cyclic = sys.Query("tc(0, Y)");
  ASSERT_TRUE(cyclic.ok()) << cyclic.status();
  EXPECT_TRUE(cyclic->plan_cached);
  EXPECT_NE(cyclic->note.find("counting diverged"), std::string::npos)
      << cyclic->note;
  EXPECT_EQ(cyclic->answers.size(), 4u);  // 0, 1, 2, 3
}

TEST(LdlSystemTest, PlanCacheEvictsTheLeastRecentlyUsedShape) {
  MetricsRegistry metrics;
  OptimizerOptions options;
  options.trace.metrics = &metrics;
  LdlSystem sys(options);
  std::string text = "e(1). e(2).\n";
  const size_t shapes = 65;  // one more shape than the cache holds
  for (size_t i = 0; i < shapes; ++i) {
    StrAppend(&text, "p", i, "(X) <- e(X).\n");
  }
  ASSERT_TRUE(sys.LoadProgram(text).ok());
  for (size_t i = 0; i < shapes; ++i) {
    EXPECT_FALSE(Cached(&sys, StrCat("p", i, "(X)")));
  }
  EXPECT_EQ(metrics.counter("ldl.plan_cache.evictions")->value(), 1u);
  EXPECT_TRUE(Cached(&sys, StrCat("p", shapes - 1, "(X)")));
  EXPECT_TRUE(Cached(&sys, "p1(X)"));
  EXPECT_FALSE(Cached(&sys, "p0(X)"));  // the least recently used went
}

TEST(LdlSystemTest, PlanCacheBypass) {
  // Caller-set measurements or pins plan this query under them.
  {
    MeasuredStatistics measured;
    OptimizerOptions options;
    options.measured = &measured;
    LdlSystem sys(options);
    ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  }
  {
    PlanConstraints pins;
    OptimizerOptions options;
    options.pinned = &pins;
    LdlSystem sys(options);
    ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
  }
  // Feedback planning reads a catalog that every query changes; with the
  // catalog attached but feedback planning off, plans are cached.
  {
    StatisticsCatalog catalog;
    OptimizerOptions options;
    options.feedback = true;
    LdlSystem sys(options);
    ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
    sys.set_feedback(&catalog);
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
    sys.set_options(OptimizerOptions{});
    EXPECT_FALSE(Cached(&sys, "anc(a, Y)"));
    EXPECT_TRUE(Cached(&sys, "anc(a, Y)"));
    sys.set_feedback(nullptr);
  }
}

// The static analysis reads the fact base directly: a relation with no
// rows is statically empty, and dead-rule elimination drops the rules that
// read it. A write through database() refreshes nothing, so a plan cached
// under the analysis would keep serving the pruned program.
TEST(LdlSystemTest, AnalysisPlansAreNotCachedAcrossDatabaseWrites) {
  for (const bool prune : {true, false}) {
    SCOPED_TRACE(prune ? "eliminate_dead_rules" : "analyze_reachability");
    OptimizerOptions options;
    options.eliminate_dead_rules = prune;
    options.analyze_reachability = !prune;
    LdlSystem sys(options);
    ASSERT_TRUE(sys.LoadProgram("s(2). t(X) <- r(X). t(X) <- s(X).").ok());
    sys.database()->GetOrCreate(PredicateId{"r", 1});
    auto before = sys.Query("t(X)");
    ASSERT_TRUE(before.ok()) << before.status();
    EXPECT_FALSE(before->plan_cached);
    EXPECT_EQ(CanonicalAnswers(before->answers),
              std::vector<std::vector<Term>>{{Term::MakeInt(2)}});

    ASSERT_TRUE(sys.database()->AddFact(*ParseLiteral("r(1)")).ok());
    auto after = sys.Query("t(X)");
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_FALSE(after->plan_cached);
    EXPECT_EQ(CanonicalAnswers(after->answers),
              (std::vector<std::vector<Term>>{{Term::MakeInt(1)},
                                              {Term::MakeInt(2)}}));
  }
}

// Counting diverges on cyclic data and falls back to magic, adorning the
// entry's working program under the plan's SIPs: on a miss and on a hit.
TEST(LdlSystemTest, CountingDivergenceFallsBackOnACacheHit) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    e(0, 1). e(1, 2). e(2, 3). e(3, 0).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
  )").ok());
  for (const char* goal : {"tc(0, Y)", "tc(1, Y)"}) {
    SCOPED_TRACE(goal);
    auto answer = sys.Query(goal);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->plan.top_method, RecursionMethod::kCounting);
    EXPECT_NE(answer->note.find("counting diverged"), std::string::npos)
        << answer->note;
    EXPECT_EQ(answer->answers.size(), 4u);
  }
  EXPECT_TRUE(Cached(&sys, "tc(2, Y)"));
}

// A cache hit binds the goal's constants and runs the entry's prepared
// schedule: nothing is compiled (rules_compiled is 0 in the answer and in
// the registry), and the answers, their row order and every other count
// are the miss's.
TEST(LdlSystemTest, PlanCacheHitCompilesNothing) {
  for (const char* goal : {"anc(a, Y)", "anc(a, d)", "anc(X, Y)"}) {
    SCOPED_TRACE(goal);
    MetricsRegistry metrics;
    OptimizerOptions options;
    options.trace.metrics = &metrics;
    LdlSystem sys(options);
    ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
    auto miss = sys.Query(goal);
    ASSERT_TRUE(miss.ok()) << miss.status();
    const uint64_t compiled_by_miss =
        metrics.counter("engine.rules_compiled")->value();
    auto hit = sys.Query(goal);
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_FALSE(miss->plan_cached);
    EXPECT_TRUE(hit->plan_cached);
    const EvalCounters& m = miss->exec_stats.counters;
    const EvalCounters& h = hit->exec_stats.counters;
    EXPECT_GT(m.rules_compiled, 0u);
    EXPECT_EQ(compiled_by_miss, m.rules_compiled);
    EXPECT_EQ(h.rules_compiled, 0u);
    EXPECT_EQ(metrics.counter("engine.rules_compiled")->value(),
              compiled_by_miss);
    EXPECT_EQ(hit->answers.tuples(), miss->answers.tuples());
    EXPECT_FALSE(hit->answers.empty());
    EXPECT_EQ(h.tuples_examined, m.tuples_examined);
    EXPECT_EQ(h.derivations, m.derivations);
    EXPECT_EQ(h.inserts, m.inserts);
    EXPECT_EQ(h.rule_firings, m.rule_firings);
    EXPECT_EQ(h.dedup_probes, m.dedup_probes);
    EXPECT_EQ(h.index_probes, m.index_probes);
    EXPECT_EQ(h.delta_rows, m.delta_rows);
    // The miss also indexed the base relations it probed first; the hit
    // finds those indexes built and indexes only its own scratch rows.
    EXPECT_LE(h.index_rows_built, m.index_rows_built);
    EXPECT_EQ(hit->exec_stats.iterations, miss->exec_stats.iterations);
  }
}

// With dead-rule elimination on, a goal whose every rule reads an empty
// relation loses all its rules to the pruning: it answers empty, under a
// safe plan, rather than failing as an undefined predicate.
TEST(LdlSystemTest, GoalWhoseRulesAreAllDeadAnswersEmpty) {
  OptimizerOptions options;
  options.eliminate_dead_rules = true;
  LdlSystem sys(options);
  ASSERT_TRUE(sys.LoadProgram("t(X) <- r(X).").ok());
  sys.database()->GetOrCreate(PredicateId{"r", 1});
  auto answer = sys.Query("t(X)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->answers.empty());
  EXPECT_EQ(answer->answers.arity(), 1u);
  EXPECT_TRUE(answer->plan.safe);
  EXPECT_FALSE(answer->plan_cached);
  // Plan, Explain, EXPLAIN OPTIMIZE and EXPLAIN ANALYZE serve the same
  // empty, safe plan.
  auto plan = sys.Plan("t(X)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->safe);
  EXPECT_EQ(plan->Fingerprint(), answer->plan.Fingerprint());
  auto text = sys.Explain("t(X)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("QUERY   t(X)?"), std::string::npos) << *text;
  EXPECT_EQ(text->find("UNSAFE"), std::string::npos) << *text;
  auto search = sys.ExplainOptimize("t(X)");
  ASSERT_TRUE(search.ok()) << search.status();
  EXPECT_EQ(search->rfind(*text, 0), 0u) << *search;
  auto analyzed = sys.AnalyzeCalibrated("t(X)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_TRUE(analyzed->answer.answers.empty());
  EXPECT_TRUE(analyzed->report.regret().computed);
  EXPECT_EQ(analyzed->report.regret().regret(), 0.0);
  EXPECT_EQ(analyzed->text.find("not computed"), std::string::npos)
      << analyzed->text;
  // EXPLAIN ANALYZE prices the goal as the served plan does, not as a base
  // relation of the default size: its estimate matches the empty run.
  const QueryPlan& served = analyzed->answer.plan;
  ASSERT_EQ(analyzed->report.nodes().size(), 1u) << analyzed->text;
  EXPECT_EQ(analyzed->report.nodes()[0].est_rows, served.estimate.card);
  EXPECT_EQ(analyzed->report.max_q_error(), 1.0) << analyzed->text;
}

// The default search hands a conjunct too long for DP to annealing, whose
// effort grows with n^2: DP over the 2^20 subsets of a 20-literal body
// costs about 10^7 evaluations and many seconds.
TEST(LdlSystemTest, LongChainBodyPlansWithinBoundedSearch) {
  std::string program = "e(0, 1).\nq(X0) <- ";
  for (int i = 0; i < 20; ++i) {
    if (i > 0) program += ", ";
    program += StrCat("e(X", i, ", X", i + 1, ")");
  }
  program += ".\n";
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(program).ok());
  auto plan = sys.Plan("q(X0)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->safe);
  EXPECT_GT(plan->search_stats.cost_evaluations, 0u);
  EXPECT_LT(plan->search_stats.cost_evaluations, 20000u);
}

TEST(LdlSystemTest, QueryLogRecordsPlanCacheHits) {
  QueryLog log;
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(kAncestor).ok());
  sys.set_query_log(&log);
  auto miss = sys.Query("anc(a, Y)");
  ASSERT_TRUE(miss.ok()) << miss.status();
  auto hit = sys.Query("anc(b, Y)");
  ASSERT_TRUE(hit.ok()) << hit.status();
  const std::vector<QueryLogRecord> records = log.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].plan_cached);
  EXPECT_TRUE(records[1].plan_cached);
  // The hit logs the fingerprint its entry stored when the miss made it,
  // which is the fingerprint of the plan it served.
  EXPECT_EQ(records[0].plan_fingerprint, miss->plan.Fingerprint());
  EXPECT_EQ(records[1].plan_fingerprint, records[0].plan_fingerprint);
  EXPECT_EQ(records[1].plan_fingerprint, hit->plan.Fingerprint());
  EXPECT_EQ(records[0].stats_epoch, records[1].stats_epoch);
}

/// ANALYZE text with its wall times blanked.
std::string WithoutTimes(const std::string& text) {
  static const std::regex kMillis("[0-9.]+ ms");
  return std::regex_replace(text, kMillis, "_ ms");
}

TEST(LdlSystemTest, AnalyzeAfterWarmQueryMatchesFreshSystem) {
  const std::string program = R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )";
  LdlSystem warm;
  ASSERT_TRUE(warm.LoadProgram(program).ok());
  testing::MakeSameGenerationData(3, 4, warm.database());
  LdlSystem fresh;
  ASSERT_TRUE(fresh.LoadProgram(program).ok());
  testing::MakeSameGenerationData(3, 4, fresh.database());

  ASSERT_TRUE(warm.Query("sg(50, Y)").ok());
  auto hit = warm.AnalyzeCalibrated("sg(50, Y)");
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->answer.plan_cached);
  auto miss = fresh.AnalyzeCalibrated("sg(50, Y)");
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->answer.plan_cached);
  EXPECT_EQ(WithoutTimes(hit->text), WithoutTimes(miss->text));
  EXPECT_EQ(hit->answer.plan.Fingerprint(), miss->answer.plan.Fingerprint());
}

}  // namespace
}  // namespace ldl
