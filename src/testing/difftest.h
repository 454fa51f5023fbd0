#ifndef LDLOPT_TESTING_DIFFTEST_H_
#define LDLOPT_TESTING_DIFFTEST_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ast/literal.h"
#include "ast/term.h"
#include "optimizer/join_order.h"
#include "testing/program_gen.h"

namespace ldl {
namespace testing {

/// What goes wrong when a fault is injected (harness self-tests): the
/// canonical "flipped join predicate" — the first binary literal of the
/// first multi-literal rule gets its arguments swapped, which changes the
/// program's meaning on asymmetric data while keeping it safe and
/// well-formed.
enum class Fault {
  kNone,
  kFlipJoin,
};

/// Returns `prog` with the fault applied (kNone returns it unchanged).
GeneratedProgram ApplyFault(const GeneratedProgram& prog, Fault fault);

/// The configuration matrix one generated program is evaluated under. The
/// reference is always direct semi-naive evaluation; every other
/// configuration must produce the identical answer set:
///  - direct engine evaluation per recursion method (naive, magic,
///    counting-with-fallback);
///  - the optimized path (LdlSystem::Query) per join-order strategy,
///    including the lexicographic no-optimizer baseline, plus an
///    exhaustive run with projection pushdown disabled (canonical vs
///    rewritten program) and one restricted to pipeline-only plans (the
///    §4 MP ablation);
///  - prepared plans: the goal asked again on the same system, served from
///    the plan cache, and a goal of the same shape with other constants
///    from the active domain (checked against its own semi-naive
///    reference), served from the cache too, then the goal again, whose
///    answers and work must match its first cached run; then, after
///    inserts that keep the statistics within the plan cache's keep
///    factor, the goal once more, served by the kept plan and checked
///    against a reference over the grown fact base.
/// Metamorphic checks ride on top: growing the EDB never shrinks a
/// positive query's answers, and a bound query equals the filtered free
/// query.
struct DiffTestOptions {
  ProgramGenOptions gen;
  bool run_naive = true;
  bool run_magic = true;
  bool run_counting = true;
  std::vector<SearchStrategy> strategies = {
      SearchStrategy::kExhaustive, SearchStrategy::kDynamicProgramming,
      SearchStrategy::kKbz, SearchStrategy::kAnnealing,
      SearchStrategy::kLexicographic};
  bool run_metamorphic = true;
  /// Adds an "opt:analysis" configuration: exhaustive search with the
  /// semantic pre-optimization passes on (dead-rule elimination +
  /// adornment-reachability pruning) and plan verification. Proves the
  /// analyses answer-preserving over the generated corpus.
  bool run_analysis_pruned = true;
  /// Adds an "opt:feedback" configuration: a warm pass under default
  /// options populates a feedback statistics catalog (goal answer counts +
  /// derived fixpoint sizes), then the query re-plans in feedback mode —
  /// the cost model consulting the catalog's blended
  /// measured-over-estimated overlay — with plan verification on. The
  /// overlay may change the chosen plan; the answers must not change
  /// (obs/feedback.h).
  bool run_feedback = true;
  /// Fault injected into a shadow configuration ("fault:..."): the shadow
  /// evaluates the mutated program and must be flagged as a mismatch —
  /// end-to-end proof the oracle can see and the shrinker can minimize.
  Fault fault = Fault::kNone;
};

/// One configuration's outcome.
struct ConfigResult {
  std::string config;
  bool ok = false;           ///< evaluation succeeded
  size_t rows = 0;
  std::string fingerprint;   ///< AnswerFingerprint (engine/query_eval.h)
  bool agrees = false;       ///< matches the reference answer set
  std::string note;          ///< the run's QueryResult::note
  std::string detail;        ///< error or mismatch sample
};

/// Outcome of the full matrix on one program.
struct DiffOutcome {
  /// The reference evaluation itself failed (generator defect, not an
  /// engine disagreement); no differential verdict possible.
  bool reference_failed = false;
  /// A non-reference configuration produced a different answer set.
  bool mismatch = false;
  /// A non-reference configuration failed to evaluate at all (the
  /// reference succeeded, so the program is valid — the config is wrong
  /// to reject it). Kept distinct from `mismatch` so the shrinker can
  /// tell "answers differ" apart from "evaluation errored": reductions
  /// routinely turn one into the other (e.g. dropping the last rule of
  /// the query predicate makes optimizer configs error with "unknown
  /// predicate"), and a shrink that swaps failure modes has lost the bug.
  bool config_error = false;
  bool metamorphic_violation = false;
  std::vector<ConfigResult> configs;
  /// Human-readable report of the first few disagreements.
  std::string detail;

  /// True when the program should be handed to the shrinker.
  bool failed() const {
    return mismatch || config_error || metamorphic_violation;
  }

  /// One tag per failing check: "neq:<config>" (answer sets differ),
  /// "err:<config>" (evaluation failed), "meta" (metamorphic violation).
  /// Shrink predicates compare these against the original failure so a
  /// reduction is only accepted while it reproduces (a subset of) the
  /// original failure modes, never a new one.
  std::vector<std::string> FailureSignatures() const;
};

/// Runs the full differential matrix over one generated program.
DiffOutcome RunDifferential(const GeneratedProgram& prog,
                            const DiffTestOptions& options);

/// `goal` with every bound argument replaced by the least constant of
/// `domain` (in Term order) that differs from it: a goal of the same
/// predicate and adornment with other constants, for exercising prepared
/// plans. Returns `goal` itself when it has no bound argument.
Literal SiblingGoal(const Literal& goal, const std::set<Term>& domain);

/// The facts the "opt:prepared:after_insert" configuration adds: for each
/// EDB relation of `prog`, one new fact whose arguments are those of one of
/// its facts rotated by one place (reversed, for a binary relation),
/// preferring a fact whose first argument is one of the query's constants,
/// so that a chain leaving the goal closes into a cycle, which a counting
/// plan must survive through its run-time fallback. A relation gets a fact
/// only when its cardinality and every column's distinct count stay
/// strictly within LdlSystem::kPlanKeepFactor, so a plan cached before the
/// insert must be kept across the refresh that follows.
std::vector<Literal> CycleClosingFacts(const GeneratedProgram& prog);

/// Delta-debugging shrinker: greedily removes rules, EDB facts (ddmin-style
/// chunking), and body literals while `still_fails` keeps returning true.
/// `still_fails` must treat invalid/unevaluable reductions as "does not
/// fail" (RunDifferential does: reference_failed programs never count as
/// failures). Deterministic; bounded by `max_evaluations` predicate calls.
struct ShrinkStats {
  size_t evaluations = 0;
  size_t rules_removed = 0;
  size_t facts_removed = 0;
  size_t literals_removed = 0;
};

GeneratedProgram ShrinkFailure(
    const GeneratedProgram& failing,
    const std::function<bool(const GeneratedProgram&)>& still_fails,
    size_t max_evaluations = 2000, ShrinkStats* stats = nullptr);

/// Writes `prog` (with `detail` as a comment header) to
/// `<dir>/repro-seed<seed>-i<iter>.ldl`. Returns the path, or "" when the
/// file could not be written. The file is directly runnable through
/// ldl_profile / ldl_lint and re-loadable by the harness.
std::string WriteRepro(const std::string& dir, uint64_t seed, size_t iter,
                       const GeneratedProgram& prog,
                       const std::string& detail);

}  // namespace testing
}  // namespace ldl

#endif  // LDLOPT_TESTING_DIFFTEST_H_
