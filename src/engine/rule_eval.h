#ifndef LDLOPT_ENGINE_RULE_EVAL_H_
#define LDLOPT_ENGINE_RULE_EVAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ast/rule.h"
#include "base/status.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "storage/database.h"

namespace ldl {

/// Work counters accumulated by the evaluator. `tuples_examined` is the
/// machine-independent work measure the recursion benchmarks report
/// alongside wall-clock time. All of them are exact counts, not timings.
struct EvalCounters {
  size_t tuples_examined = 0;  ///< tuples touched during joins/lookups
  size_t derivations = 0;      ///< head tuples produced (before dedup)
  /// Head tuples new to the relation the rule emits into. The fixpoint
  /// emits straight into each predicate's full relation, so this counts
  /// tuples new to the predicate, not new to one firing.
  size_t inserts = 0;
  size_t rule_firings = 0;  ///< rule evaluations started
  size_t dedup_probes = 0;  ///< Relation::Insert calls made by the engine
  size_t index_probes = 0;  ///< Relation::Lookup calls made by the engine
  /// Rows the semi-naive recursive rounds appended, each round's rows being
  /// the next round's delta: the sum of FixpointIteration::delta_tuples.
  size_t delta_rows = 0;

  void Add(const EvalCounters& other);
  std::string ToString() const;

  /// Adds the counters into the registry under the engine.* names
  /// (engine.tuples_examined, engine.derivations, engine.inserts,
  /// engine.rule_firings, engine.dedup_probes, engine.index_probes,
  /// engine.delta_rows). No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;
};

/// The rows of one relation a body literal reads: tuples [begin, end) of
/// `rel`. Relations are append-only until Clear, so a row range names a
/// fixed set of tuples: a semi-naive delta is the range of rows its round
/// appended to the full relation, and capping `end` freezes what a rule
/// may see while rows are still being appended.
struct RelationView {
  Relation* rel = nullptr;  ///< nullptr = empty relation
  size_t begin = 0;
  size_t end = SIZE_MAX;  ///< capped at rel->size() when a firing starts
};

/// Maps a body literal occurrence to the rows to read. Called once per
/// literal when a firing starts. Lets semi-naive evaluation give specific
/// occurrences the previous round's delta, and the magic rewrite look up
/// freshly created predicates.
using RelationResolver =
    std::function<RelationView(const Literal& lit, size_t body_pos)>;

struct RuleEvalOptions {
  /// Order in which to visit body literals; empty = textual order.
  std::vector<size_t> order;
  /// Guard against runaway evaluation (unsafe programs).
  size_t max_derivations = 200'000'000;
  /// Cooperative cancellation: checked every
  /// CancellationToken::kCheckIntervalTuples examined tuples, bounding
  /// abort latency inside even a single monster rule evaluation.
  CancellationToken* cancel = nullptr;
  /// Per-query work meter; examined/derived tuples are flushed into it at
  /// check-points (not per tuple) to keep the hot loop cheap.
  ResourceAccountant* accountant = nullptr;
};

/// Evaluates one rule bottom-up: enumerates all substitutions satisfying
/// the body (visiting literals in `options.order`), and for each one emits
/// the instantiated head tuple into `out`.
///
/// Every body literal is resolved once, when the firing starts, and its
/// view's `end` is capped at the relation's size at that moment: the firing
/// reads every relation as of its own start, even when `out` is one of
/// them.
///
/// Positive literals are matched via hash-index lookups on their bound
/// argument positions. Builtins are computed inline; a kNotComputable
/// builtin aborts with kUnsafe (the optimizer is responsible for choosing
/// orders where this cannot happen). Negated literals require all their
/// variables bound and test for absence.
///
/// Returns the number of *new* tuples added to `out`.
Result<size_t> EvaluateRule(const Rule& rule, const RelationResolver& resolve,
                            Relation* out, EvalCounters* counters,
                            const RuleEvalOptions& options = {});

}  // namespace ldl

#endif  // LDLOPT_ENGINE_RULE_EVAL_H_
