#include "testing/difftest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "base/strings.h"
#include "engine/query_eval.h"
#include "ldl/ldl.h"
#include "obs/feedback.h"
#include "storage/tuple.h"

namespace ldl {
namespace testing {

namespace {

/// Appends up to `limit` tuples of `from - other` (set difference over the
/// canonical sorted vectors) to `out`.
void AppendDiffSample(const std::vector<Tuple>& from,
                      const std::vector<Tuple>& other, const char* label,
                      size_t limit, std::string* out) {
  std::vector<Tuple> diff;
  std::set_difference(from.begin(), from.end(), other.begin(), other.end(),
                      std::back_inserter(diff));
  if (diff.empty()) return;
  StrAppend(out, "  ", label, " (", diff.size(), "): ");
  for (size_t i = 0; i < diff.size() && i < limit; ++i) {
    StrAppend(out, i ? ", " : "", TupleToString(diff[i]));
  }
  if (diff.size() > limit) StrAppend(out, ", ...");
  StrAppend(out, "\n");
}

/// Evaluation context shared across the matrix for one program.
struct Harness {
  const GeneratedProgram& prog;
  Program program;       // rules only
  Database db;           // EDB
  std::vector<Tuple> ref_canonical;
  std::string ref_fingerprint;

  explicit Harness(const GeneratedProgram& p) : prog(p) {}
};

/// Records `config`'s outcome, compared with the reference answers
/// `ref_canonical` (fingerprint `ref_fingerprint`).
void RecordAgainst(const std::vector<Tuple>& ref_canonical,
                   const std::string& ref_fingerprint, DiffOutcome* out,
                   const std::string& config,
                   const Result<QueryResult>& result) {
  ConfigResult cr;
  cr.config = config;
  if (!result.ok()) {
    cr.ok = false;
    cr.detail = result.status().ToString();
    out->config_error = true;
    StrAppend(&out->detail, config, ": evaluation failed: ", cr.detail, "\n");
    out->configs.push_back(std::move(cr));
    return;
  }
  cr.ok = true;
  cr.note = result->note;
  cr.rows = result->answers.size();
  cr.fingerprint = AnswerFingerprint(result->answers);
  cr.agrees = cr.fingerprint == ref_fingerprint;
  if (!cr.agrees) {
    // Fingerprints are hashes; confirm with the canonical sets before
    // declaring a mismatch, and sample the difference for the report.
    std::vector<Tuple> canon = CanonicalAnswers(result->answers);
    if (canon == ref_canonical) {
      cr.agrees = true;  // fingerprint collision on the reference side
    } else {
      out->mismatch = true;
      StrAppend(&out->detail, config, ": ", cr.rows, " rows vs reference ",
                ref_canonical.size(), " rows\n");
      AppendDiffSample(canon, ref_canonical, "extra", 4, &out->detail);
      AppendDiffSample(ref_canonical, canon, "missing", 4, &out->detail);
      cr.detail = "answer set differs from reference";
    }
  }
  out->configs.push_back(std::move(cr));
}

void RecordAnswers(Harness* h, DiffOutcome* out, const std::string& config,
                   const Result<QueryResult>& result) {
  RecordAgainst(h->ref_canonical, h->ref_fingerprint, out, config, result);
}

/// LdlSystem::Query under the given options, shaped like a QueryResult.
Result<QueryResult> EvalOptimized(LdlSystem* sys, const Literal& goal,
                                  OptimizerOptions options) {
  sys->set_options(std::move(options));
  LDL_ASSIGN_OR_RETURN(QueryAnswer answer, sys->Query(goal));
  QueryResult result;
  result.answers = std::move(answer.answers);
  return result;
}

/// LdlSystem::Query under the system's current options; a derived goal
/// must be served from the plan cache.
Result<QueryResult> EvalCached(LdlSystem* sys, const Literal& goal) {
  LDL_ASSIGN_OR_RETURN(QueryAnswer answer, sys->Query(goal));
  if (!answer.plan_cached && sys->program().IsDerived(goal.predicate())) {
    return Status::Internal(
        StrCat("the plan cache missed on ", goal.ToString()));
  }
  QueryResult result;
  result.answers = std::move(answer.answers);
  result.stats = std::move(answer.exec_stats);
  result.note = std::move(answer.note);
  return result;
}

/// Marks the last recorded configuration a mismatch when `again` did other
/// work than `first`, a run of the same goal on the same plan-cache entry:
/// a prepared run must leave nothing behind that changes the next one's
/// work. Index building is left out, since base relations keep the indexes
/// a run in between may have built.
void CheckSameWork(const Result<QueryResult>& first,
                   const Result<QueryResult>& again, DiffOutcome* out) {
  if (!first.ok() || !again.ok() || out->configs.empty()) return;
  const EvalCounters& a = first->stats.counters;
  const EvalCounters& b = again->stats.counters;
  std::string diff;
  auto compare = [&](const char* name, size_t was, size_t is) {
    if (was != is) StrAppend(&diff, " ", name, " ", was, " -> ", is);
  };
  compare("tuples_examined", a.tuples_examined, b.tuples_examined);
  compare("derivations", a.derivations, b.derivations);
  compare("inserts", a.inserts, b.inserts);
  compare("dedup_probes", a.dedup_probes, b.dedup_probes);
  compare("index_probes", a.index_probes, b.index_probes);
  if (diff.empty()) return;
  ConfigResult& cr = out->configs.back();
  cr.agrees = false;
  cr.detail = StrCat("work differs from the first run:", diff);
  out->mismatch = true;
  StrAppend(&out->detail, cr.config, ": ", cr.detail, "\n");
}

/// The prepared-plan configurations: the goal asked twice on one system,
/// the second time served from the plan cache ("opt:prepared"), then a
/// sibling goal of the same shape with other constants, served from the
/// cache too ("opt:prepared:sibling") and checked against its own
/// reference evaluation, then the goal once more on the same entry
/// ("opt:prepared:again"), which shows any state one run of a prepared
/// schedule leaves behind for the next: its answers and its work must be
/// those of "opt:prepared" (CheckSameWork). Last, CycleClosingFacts are added
/// and the goal is asked once more ("opt:prepared:after_insert"): the
/// statistics stay within the keep factor, so the plan must be kept across
/// the refresh, and the answers must be those of a fresh reference over the
/// grown fact base.
void RecordPrepared(Harness* h, LdlSystem* sys, DiffOutcome* out) {
  const Literal& goal = h->prog.query;
  sys->set_options(OptimizerOptions{});
  (void)sys->Query(goal);
  const Result<QueryResult> first = EvalCached(sys, goal);
  RecordAnswers(h, out, "opt:prepared", first);
  std::set<Term> domain;
  for (const Literal& fact : h->prog.facts) {
    domain.insert(fact.args().begin(), fact.args().end());
  }
  const Literal sibling = SiblingGoal(goal, domain);
  if (sibling != goal) {
    auto ref = EvaluateQuery(h->program, &h->db, sibling,
                             RecursionMethod::kSemiNaive);
    if (ref.ok()) {  // else no reference verdict is possible
      RecordAgainst(CanonicalAnswers(ref->answers),
                    AnswerFingerprint(ref->answers), out,
                    "opt:prepared:sibling", EvalCached(sys, sibling));
    }
  }
  const Result<QueryResult> again = EvalCached(sys, goal);
  RecordAnswers(h, out, "opt:prepared:again", again);
  CheckSameWork(first, again, out);

  const std::vector<Literal> inserts = CycleClosingFacts(h->prog);
  if (inserts.empty()) return;
  GeneratedProgram grown = h->prog;
  std::string text;
  for (const Literal& fact : inserts) {
    grown.facts.push_back(fact);
    StrAppend(&text, fact.ToString(), ".\n");
  }
  Database grown_db;
  if (!grown.BuildDatabase(&grown_db).ok()) return;
  auto ref = EvaluateQuery(h->program, &grown_db, goal,
                           RecursionMethod::kSemiNaive);
  if (!ref.ok()) return;  // no reference verdict is possible
  const Status added = sys->AddClause(text);
  RecordAgainst(
      CanonicalAnswers(ref->answers), AnswerFingerprint(ref->answers), out,
      "opt:prepared:after_insert",
      added.ok() ? EvalCached(sys, goal) : Result<QueryResult>(added));
}

void RunMetamorphic(Harness* h, const DiffTestOptions& options,
                    DiffOutcome* out) {
  // (1) Monotonicity: adding EDB tuples never shrinks a positive query's
  // answer set. Negation breaks monotonicity, so such programs are exempt.
  if (!h->prog.HasNegation()) {
    std::vector<PredicateId> edb_preds;
    {
      std::set<PredicateId> seen;
      for (const Literal& f : h->prog.facts) {
        if (seen.insert(f.predicate()).second) {
          edb_preds.push_back(f.predicate());
        }
      }
    }
    if (!edb_preds.empty()) {
      // Deterministic growth: seeded by the program's own size, not by any
      // global state, so reruns of the same program repeat the check.
      Rng grow_rng(0xD1FFu * (h->prog.facts.size() + 1) +
                   h->prog.rules.size());
      GeneratedProgram grown = h->prog;
      for (int i = 0; i < 4; ++i) {
        const PredicateId& pred = edb_preds[grow_rng.Uniform(edb_preds.size())];
        std::vector<Term> args;
        for (size_t a = 0; a < pred.arity; ++a) {
          args.push_back(Term::MakeInt(
              static_cast<int64_t>(grow_rng.Uniform(options.gen.domain))));
        }
        grown.facts.push_back(Literal::Make(pred.name, std::move(args)));
      }
      Database grown_db;
      Status st = grown.BuildDatabase(&grown_db);
      auto grown_result =
          st.ok() ? EvaluateQuery(h->program, &grown_db, h->prog.query,
                                  RecursionMethod::kSemiNaive)
                  : Result<QueryResult>(st);
      if (!grown_result.ok()) {
        out->metamorphic_violation = true;
        StrAppend(&out->detail, "meta:monotonic: grown EDB failed: ",
                  grown_result.status().ToString(), "\n");
      } else {
        std::vector<Tuple> grown_canon =
            CanonicalAnswers(grown_result->answers);
        if (!std::includes(grown_canon.begin(), grown_canon.end(),
                           h->ref_canonical.begin(),
                           h->ref_canonical.end())) {
          out->metamorphic_violation = true;
          StrAppend(&out->detail,
                    "meta:monotonic: adding EDB tuples lost answers\n");
          AppendDiffSample(h->ref_canonical, grown_canon, "lost", 4,
                          &out->detail);
        }
      }
    }
  }

  // (2) Bound/free consistency: a bound-argument query equals the free
  // query filtered to the constants (and vice versa for a bound instance
  // of a free query, which additionally drives magic on a constant).
  const Literal& q = h->prog.query;
  bool any_bound = false;
  for (const Term& a : q.args()) any_bound |= a.IsGround();
  if (any_bound) {
    std::vector<Term> free_args;
    for (size_t i = 0; i < q.arity(); ++i) {
      free_args.push_back(Term::MakeVariable(StrCat("Qf", i)));
    }
    Literal free_goal = q.WithArgs(std::move(free_args));
    auto free_result = EvaluateQuery(h->program, &h->db, free_goal,
                                     RecursionMethod::kSemiNaive);
    if (!free_result.ok()) {
      out->metamorphic_violation = true;
      StrAppend(&out->detail, "meta:bound-free: free query failed: ",
                free_result.status().ToString(), "\n");
    } else {
      Relation filtered = SelectMatching(&free_result->answers, q);
      std::vector<Tuple> filtered_canon = CanonicalAnswers(filtered);
      if (filtered_canon != h->ref_canonical) {
        out->metamorphic_violation = true;
        StrAppend(&out->detail,
                  "meta:bound-free: bound answers != filtered free answers\n");
        AppendDiffSample(h->ref_canonical, filtered_canon, "bound-only", 4,
                         &out->detail);
        AppendDiffSample(filtered_canon, h->ref_canonical, "free-only", 4,
                         &out->detail);
      }
    }
  } else if (!h->ref_canonical.empty()) {
    // Fully free query: instantiate the first argument with a witnessed
    // constant and check the bound evaluation (magic) agrees with the
    // filter of the free answers.
    std::vector<Term> args(q.args().begin(), q.args().end());
    args[0] = h->ref_canonical.front()[0];
    Literal bound_goal = q.WithArgs(std::move(args));
    auto bound_result = EvaluateQuery(h->program, &h->db, bound_goal,
                                      RecursionMethod::kMagic);
    if (!bound_result.ok()) {
      out->metamorphic_violation = true;
      StrAppend(&out->detail, "meta:free-bound: bound instance failed: ",
                bound_result.status().ToString(), "\n");
    } else {
      Relation all("answers", q.arity());
      for (const Tuple& t : h->ref_canonical) all.Insert(t);
      Relation filtered = SelectMatching(&all, bound_goal);
      if (CanonicalAnswers(filtered) !=
          CanonicalAnswers(bound_result->answers)) {
        out->metamorphic_violation = true;
        StrAppend(&out->detail, "meta:free-bound: bound instance ",
                  bound_goal.ToString(),
                  " disagrees with filtered free answers\n");
      }
    }
  }
}

}  // namespace

GeneratedProgram ApplyFault(const GeneratedProgram& prog, Fault fault) {
  if (fault == Fault::kNone) return prog;
  GeneratedProgram mutant = prog;
  for (Rule& rule : mutant.rules) {
    if (rule.body().size() < 2) continue;
    for (Literal& lit : *rule.mutable_body()) {
      if (!lit.IsBuiltin() && !lit.negated() && lit.arity() == 2) {
        lit = lit.WithArgs({lit.args()[1], lit.args()[0]});
        mutant.summary = StrCat(prog.summary, " FAULT:flip-join");
        return mutant;
      }
    }
  }
  return mutant;  // nothing flippable; caller sees identical program
}

std::vector<std::string> DiffOutcome::FailureSignatures() const {
  std::vector<std::string> sigs;
  for (const ConfigResult& cr : configs) {
    if (!cr.ok) {
      sigs.push_back(StrCat("err:", cr.config));
    } else if (!cr.agrees) {
      sigs.push_back(StrCat("neq:", cr.config));
    }
  }
  if (metamorphic_violation) sigs.push_back("meta");
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

DiffOutcome RunDifferential(const GeneratedProgram& prog,
                            const DiffTestOptions& options) {
  DiffOutcome out;
  Harness h(prog);

  auto program = prog.BuildProgram();
  if (!program.ok()) {
    out.reference_failed = true;
    out.detail = StrCat("program invalid: ", program.status().ToString());
    return out;
  }
  h.program = std::move(*program);
  Status st = prog.BuildDatabase(&h.db);
  if (!st.ok()) {
    out.reference_failed = true;
    out.detail = StrCat("EDB invalid: ", st.ToString());
    return out;
  }

  auto ref = EvaluateQuery(h.program, &h.db, prog.query,
                           RecursionMethod::kSemiNaive);
  if (!ref.ok()) {
    out.reference_failed = true;
    out.detail = StrCat("reference (seminaive) failed: ",
                        ref.status().ToString());
    return out;
  }
  h.ref_canonical = CanonicalAnswers(ref->answers);
  h.ref_fingerprint = AnswerFingerprint(ref->answers);
  {
    ConfigResult cr;
    cr.config = "eval:seminaive";
    cr.ok = true;
    cr.agrees = true;
    cr.rows = ref->answers.size();
    cr.fingerprint = h.ref_fingerprint;
    out.configs.push_back(std::move(cr));
  }

  // --- direct engine methods ----------------------------------------------
  if (options.run_naive) {
    RecordAnswers(&h, &out, "eval:naive",
                  EvaluateQuery(h.program, &h.db, prog.query,
                                RecursionMethod::kNaive));
  }
  if (options.run_magic) {
    RecordAnswers(&h, &out, "eval:magic",
                  EvaluateQuery(h.program, &h.db, prog.query,
                                RecursionMethod::kMagic));
  }
  if (options.run_counting) {
    RecordAnswers(&h, &out, "eval:counting",
                  EvaluateQuery(h.program, &h.db, prog.query,
                                RecursionMethod::kCounting));
  }

  // --- optimized path per join-order strategy ------------------------------
  if (!options.strategies.empty()) {
    LdlSystem sys;
    Status load = sys.LoadProgram(prog.ToLdl());
    if (!load.ok()) {
      // The printer/parser round trip failed on a program the direct path
      // evaluated — a defect in its own right, reported as a config error.
      ConfigResult cr;
      cr.config = "opt:load";
      cr.detail = load.ToString();
      out.config_error = true;
      StrAppend(&out.detail, "opt:load: round-trip parse failed: ",
                cr.detail, "\n");
      out.configs.push_back(std::move(cr));
    } else {
      for (SearchStrategy strategy : options.strategies) {
        OptimizerOptions o;
        o.strategy = strategy;
        RecordAnswers(&h, &out,
                      StrCat("opt:", SearchStrategyToString(strategy)),
                      EvalOptimized(&sys, prog.query, o));
      }
      // Canonical program (no projection pushdown) + plan verification on:
      // the optimizer must produce the same answers from the unrewritten
      // rule base, and every plan must pass the §4/§5 invariant checks.
      OptimizerOptions nopush;
      nopush.push_projections = false;
      nopush.verify_plans = true;
      RecordAnswers(&h, &out, "opt:exhaustive:nopush",
                    EvalOptimized(&sys, prog.query, nopush));
      // MP ablation: the optimizer may not materialize any subtree, so
      // every plan is pipeline-only (section 4), and must still verify.
      OptimizerOptions pipeline;
      pipeline.consider_materialization = false;
      pipeline.verify_plans = true;
      RecordAnswers(&h, &out, "opt:pipeline-only",
                    EvalOptimized(&sys, prog.query, pipeline));
      // Semantic pre-optimization on: dead rules eliminated, statically
      // unreachable adornments pruned from the search. Must be invisible
      // in the answer set, and the resulting plans must still verify.
      if (options.run_analysis_pruned) {
        OptimizerOptions analyzed;
        analyzed.analyze_reachability = true;
        analyzed.eliminate_dead_rules = true;
        analyzed.verify_plans = true;
        RecordAnswers(&h, &out, "opt:analysis",
                      EvalOptimized(&sys, prog.query, analyzed));
      }
      // Feedback planning mode: warm the catalog with one observed pass,
      // then re-plan under the blended measured overlay. A different plan
      // is fine (often the point); different answers are a bug.
      if (options.run_feedback) {
        StatisticsCatalog catalog;
        DriftDetector detector;
        sys.set_feedback(&catalog, &detector);
        OptimizerOptions warm;
        (void)EvalOptimized(&sys, prog.query, warm);
        OptimizerOptions fed;
        fed.feedback = true;
        fed.verify_plans = true;
        RecordAnswers(&h, &out, "opt:feedback",
                      EvalOptimized(&sys, prog.query, fed));
        sys.set_feedback(nullptr, nullptr);
      }
      RecordPrepared(&h, &sys, &out);
    }
  }

  // --- injected fault (harness self-test) ----------------------------------
  if (options.fault != Fault::kNone) {
    GeneratedProgram mutant = ApplyFault(prog, options.fault);
    auto mutant_program = mutant.BuildProgram();
    if (mutant_program.ok()) {
      RecordAnswers(&h, &out, "fault:flip-join",
                    EvaluateQuery(*mutant_program, &h.db, mutant.query,
                                  RecursionMethod::kSemiNaive));
    }
  }

  // --- metamorphic checks ---------------------------------------------------
  if (options.run_metamorphic) {
    RunMetamorphic(&h, options, &out);
  }
  return out;
}

namespace {

GeneratedProgram WithoutRule(const GeneratedProgram& prog, size_t index) {
  GeneratedProgram out = prog;
  out.rules.erase(out.rules.begin() + static_cast<ptrdiff_t>(index));
  return out;
}

GeneratedProgram WithoutFacts(const GeneratedProgram& prog, size_t start,
                              size_t count) {
  GeneratedProgram out = prog;
  auto first = out.facts.begin() + static_cast<ptrdiff_t>(start);
  auto last = first + static_cast<ptrdiff_t>(
                          std::min(count, out.facts.size() - start));
  out.facts.erase(first, last);
  return out;
}

GeneratedProgram WithoutLiteral(const GeneratedProgram& prog, size_t rule,
                                size_t literal) {
  GeneratedProgram out = prog;
  std::vector<Literal>* body = out.rules[rule].mutable_body();
  body->erase(body->begin() + static_cast<ptrdiff_t>(literal));
  return out;
}

}  // namespace

GeneratedProgram ShrinkFailure(
    const GeneratedProgram& failing,
    const std::function<bool(const GeneratedProgram&)>& still_fails,
    size_t max_evaluations, ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats* s = stats != nullptr ? stats : &local;
  *s = ShrinkStats{};
  GeneratedProgram current = failing;

  auto budget_left = [&]() { return s->evaluations < max_evaluations; };
  auto check = [&](const GeneratedProgram& candidate) {
    if (!budget_left()) return false;
    ++s->evaluations;
    return still_fails(candidate);
  };

  // Phase 1: whole rules, greedily to fixpoint. (Removing a rule the query
  // depends on makes the program invalid or empties the reference — the
  // predicate rejects those candidates.)
  bool changed = true;
  while (changed && budget_left()) {
    changed = false;
    for (size_t i = 0; i < current.rules.size(); ++i) {
      GeneratedProgram candidate = WithoutRule(current, i);
      if (check(candidate)) {
        current = std::move(candidate);
        ++s->rules_removed;
        changed = true;
        break;
      }
    }
  }

  // Phase 2: EDB facts, ddmin-style — remove chunks, halving the chunk size
  // whenever a full sweep removes nothing.
  for (size_t chunk = std::max<size_t>(1, current.facts.size() / 2);
       chunk >= 1 && budget_left();) {
    bool removed_any = false;
    size_t start = 0;
    while (start < current.facts.size() && budget_left()) {
      GeneratedProgram candidate = WithoutFacts(current, start, chunk);
      if (check(candidate)) {
        s->facts_removed +=
            current.facts.size() - candidate.facts.size();
        current = std::move(candidate);
        removed_any = true;
        // Same start: the next chunk slid into this position.
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed_any) break;
    if (!removed_any) chunk /= 2;
  }

  // Phase 3: individual body literals, then one more rule pass (dropping a
  // literal often makes a whole rule droppable).
  changed = true;
  while (changed && budget_left()) {
    changed = false;
    for (size_t r = 0; r < current.rules.size() && !changed; ++r) {
      for (size_t l = 0; l < current.rules[r].body().size(); ++l) {
        GeneratedProgram candidate = WithoutLiteral(current, r, l);
        if (check(candidate)) {
          current = std::move(candidate);
          ++s->literals_removed;
          changed = true;
          break;
        }
      }
    }
    if (!changed) {
      for (size_t i = 0; i < current.rules.size(); ++i) {
        GeneratedProgram candidate = WithoutRule(current, i);
        if (check(candidate)) {
          current = std::move(candidate);
          ++s->rules_removed;
          changed = true;
          break;
        }
      }
    }
  }
  return current;
}

std::string WriteRepro(const std::string& dir, uint64_t seed, size_t iter,
                       const GeneratedProgram& prog,
                       const std::string& detail) {
  const std::string base = dir.empty() ? std::string(".") : dir;
  std::error_code ec;
  std::filesystem::create_directories(base, ec);  // best effort; open decides
  std::string path = StrCat(base, "/repro-seed", seed, "-i", iter, ".ldl");
  std::ofstream out(path);
  if (!out) return "";
  out << "% ldl_difftest repro (seed " << seed << ", iteration " << iter
      << ")\n";
  size_t pos = 0;
  while (pos < detail.size()) {
    size_t eol = detail.find('\n', pos);
    if (eol == std::string::npos) eol = detail.size();
    out << "% " << detail.substr(pos, eol - pos) << "\n";
    pos = eol + 1;
  }
  out << prog.ToLdl();
  return out.good() ? path : "";
}

Literal SiblingGoal(const Literal& goal, const std::set<Term>& domain) {
  std::vector<Term> args = goal.args();
  for (Term& arg : args) {
    if (!arg.IsGround()) continue;
    for (const Term& value : domain) {
      if (value != arg) {
        arg = value;
        break;
      }
    }
  }
  return goal.WithArgs(std::move(args));
}

std::vector<Literal> CycleClosingFacts(const GeneratedProgram& prog) {
  std::set<Term> goal_constants;
  for (const Term& arg : prog.query.args()) {
    if (arg.IsGround()) goal_constants.insert(arg);
  }
  // Per relation: its rows and each column's values, as the statistics
  // will count them.
  struct Rows {
    std::set<std::vector<Term>> rows;
    std::vector<std::set<Term>> columns;
  };
  std::map<PredicateId, Rows> relations;
  for (const Literal& fact : prog.facts) {
    Rows& r = relations[fact.predicate()];
    r.rows.insert(fact.args());
    r.columns.resize(fact.arity());
    for (size_t c = 0; c < fact.arity(); ++c) {
      r.columns[c].insert(fact.args()[c]);
    }
  }
  const double k = LdlSystem::kPlanKeepFactor;
  std::vector<Literal> out;
  for (const auto& [pred, r] : relations) {
    const double rows = static_cast<double>(r.rows.size());
    if (pred.arity < 2 || rows + 1 >= k * rows) continue;
    // A new row whose values keep every column's distinct count within
    // the factor.
    auto keeps = [&r, k](const std::vector<Term>& row) {
      if (r.rows.count(row) > 0) return false;
      for (size_t c = 0; c < row.size(); ++c) {
        const double d = static_cast<double>(r.columns[c].size());
        if (r.columns[c].count(row[c]) == 0 && d + 1 >= k * d) return false;
      }
      return true;
    };
    std::optional<std::vector<Term>> pick, fallback;
    for (const std::vector<Term>& row : r.rows) {
      std::vector<Term> rotated(row.begin() + 1, row.end());
      rotated.push_back(row[0]);
      if (!keeps(rotated)) continue;
      if (goal_constants.count(row[0]) > 0) {
        pick = std::move(rotated);
        break;
      }
      if (!fallback.has_value()) fallback = std::move(rotated);
    }
    if (!pick.has_value()) pick = std::move(fallback);
    if (pick.has_value()) {
      out.push_back(Literal::Make(pred.name, std::move(*pick)));
    }
  }
  return out;
}

}  // namespace testing
}  // namespace ldl
