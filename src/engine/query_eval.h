#ifndef LDLOPT_ENGINE_QUERY_EVAL_H_
#define LDLOPT_ENGINE_QUERY_EVAL_H_

#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "base/status.h"
#include "engine/fixpoint.h"
#include "engine/rule_eval.h"
#include "graph/adornment.h"
#include "storage/database.h"

namespace ldl {

/// The answers to one query plus the work it took to compute them.
struct QueryResult {
  /// One tuple per distinct binding of the goal's arguments (arity =
  /// goal arity; bound positions repeat the constants).
  Relation answers{"answers", 0};
  FixpointStats stats;
  RecursionMethod method_used = RecursionMethod::kSemiNaive;
  /// Human-readable note, e.g. "counting fell back to magic (cyclic data)".
  std::string note;
  /// What the run computed, as rows per binding instance of each adorned
  /// derived predicate (the shape of MeasuredStatistics::Entries()), read
  /// off relation sizes the run already holds:
  ///  - kNaive/kSemiNaive: every reachable derived predicate in full, under
  ///    its all-free adornment;
  ///  - kMagic: |p.a| / |magic.p.a| for every adorned predicate of the
  ///    rewrite that received at least one binding;
  ///  - kCounting: the goal's own (predicate, adornment) entry.
  std::vector<std::pair<AdornedPredicate, double>> derived_sizes;
};

struct QueryEvalOptions {
  FixpointOptions fixpoint;
  /// SIPs used for adornment when method is kMagic, and by counting's
  /// divergence fallback to magic (defaults to textual left-to-right
  /// order).
  SipStrategy sips;
  /// If true, kCounting falls back to kMagic when inapplicable or when the
  /// ascent hits the iteration guard (cyclic data).
  bool counting_fallback = true;
};

/// Reads a goal's answers off the relation that holds them (DESIGN.md §23):
/// the goal's pattern over that relation, compiled with its bound (ground)
/// arguments as the parameters `$0, $1, ...` in order, as a prepared seed
/// binds them, so one selector serves every goal with the same free
/// arguments. A counting selector reads counting's `ans.p` instead, whose
/// rows are (level, free arguments): it matches level 0, drops the level
/// and puts the bound arguments back in their positions.
class AnswerSelector {
 public:
  /// The selector of `goal` over a relation of the goal's arity (a base
  /// relation, the full methods' goal relation, magic's `p.a`).
  static AnswerSelector Compile(const Literal& goal);
  /// The selector of `goal` over counting's `ans.p`.
  static AnswerSelector CompileCounting(const Literal& goal);

  /// Inserts into `out` the answers in `rel` of the goal whose bound
  /// arguments are `params` (values of rel's store, in argument order).
  /// `out` must have the goal's arity and share rel's store; a null `rel`
  /// holds no answers. The bound columns are probed through an index only
  /// when `rel` already has one built on them (Relation::BuiltIndex), or
  /// when `build_index` is set, for a relation that keeps its indexes (a
  /// base relation); otherwise one filtered scan reads the rows, since a
  /// full index build for a single probe costs more than the scan. Either
  /// way the answers come in row order.
  void Select(Relation* rel, std::span<const Value> params, bool build_index,
              Relation* out) const;

 private:
  /// Where an answer column's value comes from: a row column, or (counting)
  /// the goal's `index`-th bound argument.
  struct Column {
    bool param = false;
    uint32_t index = 0;
  };

  RegisterScope scope_;
  LiteralPattern pattern_;
  /// Per answer column; empty when the answer is the matching row itself.
  std::vector<Column> project_;
};

/// A query prepared for one goal shape: everything EvaluateQuery derives
/// from the program, the goal's predicate and its adornment, and nothing
/// from the goal's constants (DESIGN.md §22, §23). Prepare once, then run it
/// for any goal of the same predicate and adornment (RunPrepared): a run
/// binds the parameters and runs the prepared schedule's rounds, with no
/// graph build and no rule compile.
///
/// The constants enter only at run time, as the values of the seed fact's
/// parameters: the rewritten program carries the seed as the bodiless rule
/// `magic.q.a($0, ..., $k)` / `cnt.q(0, $0, ..., $k)`, and RunPrepared binds
/// `$i` to the goal's i-th bound argument (FixpointOptions::params).
struct PreparedQuery {
  /// The method the caller asked for.
  RecursionMethod requested = RecursionMethod::kSemiNaive;
  /// The method `schedule` runs by: `requested`, or kMagic when counting
  /// was inapplicable at prepare time.
  RecursionMethod method = RecursionMethod::kSemiNaive;
  /// The goal's predicate is derived. A base-relation goal needs no
  /// program: its answers are selected from the fact base, and `schedule`
  /// stays empty.
  bool derived = false;
  /// What the fixpoint runs, built with its rules compiled:
  ///  - kNaive/kSemiNaive: the goal's reachable subprogram, its rules
  ///    compiled for the caller's orders (remapped onto it);
  ///  - kMagic: the magic rewrite plus its parameterized seed fact;
  ///  - kCounting: the counting rewrite plus its parameterized seed fact.
  FixpointSchedule schedule;
  /// kMagic: the adorned predicates of the rewrite (derived_sizes).
  std::vector<AdornedPredicate> adorned;
  /// kMagic/kCounting: the predicate holding the answers (p.a / ans.p).
  PredicateId answer_pred;
  /// The answer selector of the goals whose free arguments are distinct
  /// variables (the shape the plan-cache key cannot tell from `p(1, Y, Y)`
  /// or `p(1, f(Y))`; those compile their own per run), over the relation
  /// holding the answers. Unused by an all-free full run, which hands over
  /// its goal relation whole.
  AnswerSelector selector;
  /// Why the method differs from the one requested, e.g. "counting
  /// inapplicable (...); fell back to magic".
  std::string note;
  /// What the last successful run left (DESIGN.md §26), empty before the
  /// first: the rows of each derived slot of `schedule`, and the answers.
  /// The next run reserves its scratch and answer relations at these
  /// sizes, so it allocates each once. They change capacity only, never
  /// answers, row order or a counter. Runs write them, so one prepared
  /// query runs on one thread at a time.
  mutable std::vector<size_t> slot_rows;
  mutable size_t answer_rows = 0;
};

/// Prepares `goal`'s shape over `program` for `method`, ending with the
/// fixpoint schedule (its compiles go to the trace's engine.rules_compiled):
///  - kNaive / kSemiNaive restrict the program to the goal's reachable
///    part and remap options.fixpoint.rule_orders onto it;
///  - kMagic adorns the program under options.sips and applies the magic
///    rewrite;
///  - kCounting applies the counting rewrite, falling back to magic when it
///    is inapplicable and options.counting_fallback is set.
/// Only the goal's predicate and adornment are read: every goal with the
/// same ones may run the result.
Result<PreparedQuery> PrepareQuery(const Program& program,
                                   const Literal& goal,
                                   RecursionMethod method,
                                   const QueryEvalOptions& options = {});

/// Runs a prepared query for `goal`, which must have the predicate and
/// adornment it was prepared for: binds the seed to `goal`'s constants,
/// evaluates to a fixpoint over `base`, and selects `goal`'s answers, into
/// relations sized by the last run (PreparedQuery::slot_rows).
/// options.fixpoint applies as in EvaluateQuery (its rule_orders were
/// consumed by PrepareQuery and are ignored here). Compiles nothing: the
/// result's rules_compiled is 0, except that a counting run that trips its
/// divergence guard falls back to magic when options.counting_fallback is
/// set, preparing and running the magic schedule of `source`, the program
/// `prepared` was prepared from, adorned under options.sips on the spot.
Result<QueryResult> RunPrepared(const PreparedQuery& prepared,
                                const Program& source, Database* base,
                                const Literal& goal,
                                const QueryEvalOptions& options = {});

/// Evaluates `goal` over `program` + `base` with the given recursion
/// method: PrepareQuery, then RunPrepared. The preparation's compiles count
/// into the result's rules_compiled.
///  - kNaive / kSemiNaive evaluate the reachable part of the program
///    bottom-up in full, then select the matching tuples;
///  - kMagic adorns the program for the goal, applies the magic rewrite and
///    evaluates semi-naively;
///  - kCounting applies the counting rewrite (with optional fallback).
/// `base` is not modified except for lazily built indexes.
Result<QueryResult> EvaluateQuery(const Program& program, Database* base,
                                  const Literal& goal, RecursionMethod method,
                                  const QueryEvalOptions& options = {});

/// Restricts `program` to the rules defining predicates that `goal`
/// depends on (transitively). Avoids evaluating unrelated rule sets.
/// When `index_map` is non-null it receives, for each rule of the result,
/// the index of that rule in `program` (so per-rule options can be
/// remapped).
Program ReachableSubprogram(const Program& program, const Literal& goal,
                            std::vector<size_t>* index_map = nullptr);

/// Selects from `rel` the tuples matching `goal`'s argument pattern and
/// returns them as a relation of the same arity: AnswerSelector::Compile,
/// then Select with an index on the goal's bound columns, built if `rel`
/// has none (meant for relations that keep their indexes).
Relation SelectMatching(Relation* rel, const Literal& goal);

/// Canonical form of an answer set: the tuples sorted by Term's total
/// order. Two evaluations of the same query are equivalent iff their
/// canonical forms are equal, regardless of derivation order — the
/// comparison primitive of the differential-testing oracle
/// (src/testing/difftest.h) and of the golden result tests.
std::vector<Tuple> CanonicalAnswers(const Relation& answers);

/// Order-independent digest of an answer set: "<rows>:<hex>" where the hex
/// is a commutative hash over the tuples. Cheap to compare and to log;
/// collisions are possible in principle, so mismatch *reports* should
/// re-check with CanonicalAnswers.
std::string AnswerFingerprint(const Relation& answers);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_QUERY_EVAL_H_
