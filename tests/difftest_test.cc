// Tests for the differential-testing subsystem (src/testing/program_gen.h,
// src/testing/difftest.h): generator validity and determinism, the
// printer/parser round trip, the cross-method oracle, answer
// canonicalization, fault injection, and the ddmin shrinker.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "ast/parser.h"
#include "base/rng.h"
#include "engine/query_eval.h"
#include "ldl/ldl.h"
#include "testing/difftest.h"
#include "testing/program_gen.h"

namespace ldl {
namespace testing {
namespace {

// --- generator ------------------------------------------------------------

TEST(ProgramGenTest, GeneratedProgramsAreValidAndEvaluable) {
  Rng rng(101);
  ProgramGenOptions options;
  for (int i = 0; i < 40; ++i) {
    GeneratedProgram prog = GenerateProgram(&rng, options);
    auto program = prog.BuildProgram();
    ASSERT_TRUE(program.ok()) << prog.summary << "\n" << prog.ToLdl();
    Database db;
    ASSERT_TRUE(prog.BuildDatabase(&db).ok()) << prog.summary;
    auto ref = EvaluateQuery(*program, &db, prog.query,
                             RecursionMethod::kSemiNaive, {});
    ASSERT_TRUE(ref.ok()) << prog.summary << ": " << ref.status() << "\n"
                          << prog.ToLdl();
  }
}

TEST(ProgramGenTest, DeterministicBySeed) {
  ProgramGenOptions options;
  Rng a(7), b(7), c(8);
  GeneratedProgram pa = GenerateProgram(&a, options);
  GeneratedProgram pb = GenerateProgram(&b, options);
  GeneratedProgram pc = GenerateProgram(&c, options);
  EXPECT_EQ(pa.ToLdl(), pb.ToLdl());
  EXPECT_NE(pa.ToLdl(), pc.ToLdl());
}

TEST(ProgramGenTest, RoundTripsThroughParser) {
  // A second pass with complex terms sends lists, function terms and `=`
  // arithmetic through the printer and back.
  ProgramGenOptions complex;
  complex.complex_term_probability = 0.5;
  for (const ProgramGenOptions& options : {ProgramGenOptions(), complex}) {
    Rng rng(202);
    for (int i = 0; i < 25; ++i) {
      GeneratedProgram prog = GenerateProgram(&rng, options);
      LdlSystem sys;
      Status st = sys.LoadProgram(prog.ToLdl());
      ASSERT_TRUE(st.ok()) << prog.summary << ": " << st.ToString() << "\n"
                           << prog.ToLdl();
      // The embedded query form survives the round trip too.
      ASSERT_EQ(sys.pending_queries().size(), 1u) << prog.ToLdl();
      EXPECT_EQ(sys.pending_queries()[0].goal.ToString(),
                prog.query.ToString());
      // Every rule and fact prints back exactly as generated.
      auto parsed = ParseProgram(prog.ToLdl());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_EQ(parsed->rules().size(), prog.rules.size()) << prog.ToLdl();
      for (size_t r = 0; r < prog.rules.size(); ++r) {
        EXPECT_EQ(parsed->rules()[r].ToString(), prog.rules[r].ToString());
      }
      ASSERT_EQ(parsed->facts().size(), prog.facts.size()) << prog.ToLdl();
      for (size_t f = 0; f < prog.facts.size(); ++f) {
        EXPECT_EQ(parsed->facts()[f].ToString(), prog.facts[f].ToString());
      }
    }
  }
}

TEST(ProgramGenTest, ShapesAreHonored) {
  ProgramGenOptions options;
  for (EdbShape shape : {EdbShape::kChain, EdbShape::kTree, EdbShape::kCycle,
                         EdbShape::kRandom}) {
    options.shape = shape;
    Rng rng(11);
    GeneratedProgram prog = GenerateProgram(&rng, options);
    EXPECT_NE(prog.summary.find(EdbShapeToString(shape)), std::string::npos)
        << prog.summary;
  }
}

// --- canonicalization -----------------------------------------------------

TEST(CanonicalAnswersTest, SortsTuplesAndFingerprintsAreOrderFree) {
  Relation a("r", 2);
  a.Insert({Term::MakeInt(2), Term::MakeInt(1)});
  a.Insert({Term::MakeInt(1), Term::MakeInt(2)});
  Relation b("r", 2);
  b.Insert({Term::MakeInt(1), Term::MakeInt(2)});
  b.Insert({Term::MakeInt(2), Term::MakeInt(1)});
  EXPECT_EQ(CanonicalAnswers(a), CanonicalAnswers(b));
  EXPECT_EQ(AnswerFingerprint(a), AnswerFingerprint(b));
  std::vector<Tuple> canon = CanonicalAnswers(a);
  ASSERT_EQ(canon.size(), 2u);
  EXPECT_LE(canon[0], canon[1]);

  Relation c("r", 2);
  c.Insert({Term::MakeInt(1), Term::MakeInt(3)});
  EXPECT_NE(AnswerFingerprint(a), AnswerFingerprint(c));
  // The fingerprint leads with the cardinality, so size mismatches are
  // visible without decoding the hash.
  EXPECT_EQ(AnswerFingerprint(c).substr(0, 2), "1:");
}

// --- differential oracle --------------------------------------------------

TEST(DiffTestTest, CleanProgramsProduceNoMismatch) {
  Rng rng(303);
  DiffTestOptions options;
  for (int i = 0; i < 10; ++i) {
    GeneratedProgram prog = GenerateProgram(&rng, options.gen);
    DiffOutcome outcome = RunDifferential(prog, options);
    ASSERT_FALSE(outcome.reference_failed) << outcome.detail;
    EXPECT_FALSE(outcome.failed())
        << prog.summary << "\n" << outcome.detail << prog.ToLdl();
    // The matrix really ran: reference + 3 methods + 5 strategies +
    // nopush, pipeline-only, analysis, feedback, prepared and
    // prepared-again optimizer configs.
    EXPECT_GE(outcome.configs.size(), 15u);
    EXPECT_TRUE(outcome.FailureSignatures().empty());
  }
}

// The prepared-plan axis serves the goal from the plan cache, and a goal of
// the same shape with other constants too, then the goal once more, each
// matching its reference; the last run also does the first run's work.
TEST(DiffTestTest, PreparedPlansRunAgainstTheReference) {
  Rng rng(404);
  DiffTestOptions options;
  std::map<std::string, size_t> runs;
  for (int i = 0; i < 20; ++i) {
    GeneratedProgram prog = GenerateProgram(&rng, options.gen);
    DiffOutcome outcome = RunDifferential(prog, options);
    ASSERT_FALSE(outcome.reference_failed) << outcome.detail;
    for (const ConfigResult& cr : outcome.configs) {
      if (cr.config.rfind("opt:prepared", 0) != 0) continue;
      EXPECT_TRUE(cr.ok && cr.agrees) << cr.config << ": " << cr.detail;
      ++runs[cr.config];
    }
  }
  EXPECT_EQ(runs["opt:prepared"], 20u);
  EXPECT_GT(runs["opt:prepared:sibling"], 5u);
  EXPECT_EQ(runs["opt:prepared:again"], 20u);
  EXPECT_EQ(runs["opt:prepared:after_insert"], 20u);
}

// After facts that close a cycle through the goal's constant, a kept
// counting plan diverges and falls back to magic at run time, and still
// matches the reference over the grown fact base.
TEST(DiffTestTest, KeptPlansSurviveInsertsThatCloseACycle) {
  GeneratedProgram prog;
  prog.rules = ParseProgram(R"(
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
  )")->rules();
  for (const char* fact : {"e(0, 1)", "e(1, 2)", "e(2, 3)", "e(5, 6)"}) {
    prog.facts.push_back(*ParseLiteral(fact));
  }
  prog.query = *ParseLiteral("tc(0, Y)");
  const std::vector<Literal> inserts = CycleClosingFacts(prog);
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(inserts[0].ToString(), "e(1, 0)");

  DiffOutcome outcome = RunDifferential(prog, DiffTestOptions{});
  ASSERT_FALSE(outcome.reference_failed) << outcome.detail;
  EXPECT_FALSE(outcome.failed()) << outcome.detail;
  bool found = false;
  for (const ConfigResult& cr : outcome.configs) {
    if (cr.config != "opt:prepared:after_insert") continue;
    found = true;
    EXPECT_TRUE(cr.ok && cr.agrees) << cr.detail;
    EXPECT_NE(cr.note.find("counting diverged"), std::string::npos)
        << cr.note;
  }
  EXPECT_TRUE(found);

  // A relation of one row would double: it gets no fact.
  prog.facts.resize(1);
  EXPECT_TRUE(CycleClosingFacts(prog).empty());
}

TEST(DiffTestTest, FlippedJoinIsDetected) {
  // Hand-built asymmetric chain: flipping e(X, Z) in the recursive rule
  // changes the transitive closure.
  GeneratedProgram prog;
  auto parsed = ParseProgram(R"(
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
  )");
  ASSERT_TRUE(parsed.ok());
  prog.rules = parsed->rules();
  for (int i = 0; i < 4; ++i) {
    prog.facts.push_back(Literal::Make(
        "e", {Term::MakeInt(i), Term::MakeInt(i + 1)}));
  }
  auto goal = ParseLiteral("t(0, Y)");
  ASSERT_TRUE(goal.ok());
  prog.query = *goal;
  prog.summary = "hand-built chain";

  GeneratedProgram mutant = ApplyFault(prog, Fault::kFlipJoin);
  EXPECT_NE(mutant.ToLdl(), prog.ToLdl());

  DiffTestOptions options;
  options.fault = Fault::kFlipJoin;
  DiffOutcome outcome = RunDifferential(prog, options);
  ASSERT_FALSE(outcome.reference_failed) << outcome.detail;
  bool fault_flagged = false;
  for (const ConfigResult& cr : outcome.configs) {
    if (cr.config == "fault:flip-join") fault_flagged = !cr.agrees;
  }
  EXPECT_TRUE(fault_flagged) << outcome.detail;
  EXPECT_EQ(outcome.FailureSignatures(),
            (std::vector<std::string>{"neq:fault:flip-join"}));
}

TEST(DiffTestTest, ConfigErrorIsDistinctFromMismatch) {
  // A program whose query predicate has no rules: the direct path answers
  // from the (empty) base relation, the optimizer configs error. That must
  // surface as config_error, not as an answer mismatch — the distinction
  // the shrinker's signature matching is built on.
  GeneratedProgram prog;
  auto goal = ParseLiteral("undefined_pred(X)");
  ASSERT_TRUE(goal.ok());
  prog.query = *goal;
  prog.summary = "no rules";
  DiffTestOptions options;
  options.run_metamorphic = false;
  DiffOutcome outcome = RunDifferential(prog, options);
  ASSERT_FALSE(outcome.reference_failed);
  EXPECT_TRUE(outcome.config_error) << outcome.detail;
  EXPECT_FALSE(outcome.mismatch);
  for (const std::string& sig : outcome.FailureSignatures()) {
    EXPECT_EQ(sig.substr(0, 4), "err:") << sig;
  }
}

// --- shrinker -------------------------------------------------------------

TEST(ShrinkFailureTest, MinimizesInjectedFaultToHandfulOfRules) {
  Rng rng(404);
  DiffTestOptions options;
  options.fault = Fault::kFlipJoin;
  size_t shrunk_checked = 0;
  for (int i = 0; i < 12 && shrunk_checked < 3; ++i) {
    GeneratedProgram prog = GenerateProgram(&rng, options.gen);
    DiffOutcome outcome = RunDifferential(prog, options);
    if (outcome.reference_failed) continue;
    bool fault_flagged = false;
    for (const ConfigResult& cr : outcome.configs) {
      if (cr.config == "fault:flip-join" && (!cr.agrees || !cr.ok)) {
        fault_flagged = true;
      }
    }
    if (!fault_flagged) continue;  // mutation was a no-op on this program

    // Signature-preserving predicate, as the CLI uses: accept a reduction
    // only while its failures are a subset of the original failure modes.
    std::set<std::string> allowed;
    for (const std::string& s : outcome.FailureSignatures()) allowed.insert(s);
    auto still_fails = [&](const GeneratedProgram& candidate) {
      DiffOutcome o = RunDifferential(candidate, options);
      std::vector<std::string> sigs = o.FailureSignatures();
      if (sigs.empty()) return false;
      for (const std::string& s : sigs) {
        if (allowed.count(s) == 0) return false;
      }
      return true;
    };

    ShrinkStats stats;
    GeneratedProgram minimized =
        ShrinkFailure(prog, still_fails, 2000, &stats);
    EXPECT_TRUE(still_fails(minimized)) << minimized.ToLdl();
    EXPECT_LE(minimized.rules.size(), 5u)
        << "shrunk from " << prog.rules.size() << " rules:\n"
        << minimized.ToLdl();
    EXPECT_LE(minimized.rules.size(), prog.rules.size());
    EXPECT_LE(minimized.facts.size(), prog.facts.size());
    EXPECT_GT(stats.evaluations, 0u);
    ++shrunk_checked;
  }
  // The flip must have been effective on at least a few generated programs.
  EXPECT_GE(shrunk_checked, 3u);
}

TEST(ShrinkFailureTest, NeverAcceptsNonFailingCandidates) {
  // Degenerate predicate that only fails on the original: the shrinker must
  // return the original unchanged.
  Rng rng(505);
  ProgramGenOptions gen;
  GeneratedProgram prog = GenerateProgram(&rng, gen);
  std::string original = prog.ToLdl();
  GeneratedProgram minimized = ShrinkFailure(
      prog,
      [&original](const GeneratedProgram& candidate) {
        return candidate.ToLdl() == original;
      },
      500, nullptr);
  EXPECT_EQ(minimized.ToLdl(), original);
}

// --- repro files ----------------------------------------------------------

TEST(WriteReproTest, CreatesDirectoryAndRunnableFile) {
  Rng rng(606);
  ProgramGenOptions gen;
  GeneratedProgram prog = GenerateProgram(&rng, gen);
  std::string dir = ::testing::TempDir() + "/difftest-repros/nested";
  std::string path = WriteRepro(dir, 42, 7, prog, "line one\nline two");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("repro-seed42-i7.ldl"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  EXPECT_NE(text.find("% line one"), std::string::npos);
  EXPECT_NE(text.find("% line two"), std::string::npos);

  // The repro is directly re-loadable (comments and query included).
  LdlSystem sys;
  EXPECT_TRUE(sys.LoadProgram(text).ok()) << text;
  std::filesystem::remove_all(::testing::TempDir() + "/difftest-repros");
}

}  // namespace
}  // namespace testing
}  // namespace ldl
