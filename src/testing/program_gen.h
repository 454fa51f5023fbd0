#ifndef LDLOPT_TESTING_PROGRAM_GEN_H_
#define LDLOPT_TESTING_PROGRAM_GEN_H_

#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "base/rng.h"
#include "base/status.h"
#include "storage/database.h"

namespace ldl {
namespace testing {

/// Shape of the random EDB graph backing each generated base relation.
/// chain/tree are acyclic, cycle is deliberately cyclic (it exercises the
/// counting->magic fallback), random draws arbitrary pairs (may be cyclic).
enum class EdbShape {
  kChain,
  kTree,
  kCycle,
  kRandom,
  kMixed,  ///< pick one of the above per relation
};

const char* EdbShapeToString(EdbShape shape);
/// Parses "chain" / "tree" / "cycle" / "random" / "mixed".
bool ParseEdbShape(std::string_view text, EdbShape* out);

/// Recursion skeleton of the generated clique.
enum class RecursionKind {
  kLinear,          ///< t(X,Y) <- e(X,Z), t(Z,Y).
  kNonlinear,       ///< t(X,Y) <- t(X,Z), t(Z,Y).
  kMutual,          ///< two-predicate clique t <-> u
  kSameGeneration,  ///< t(X,Y) <- up(X,X1), t(X1,Y1), dn(Y1,Y).
};

const char* RecursionKindToString(RecursionKind kind);

/// Knobs of the random stratified-program grammar. Defaults are tuned so a
/// full differential matrix over one program runs in a few milliseconds.
struct ProgramGenOptions {
  EdbShape shape = EdbShape::kMixed;
  size_t min_edb_relations = 2;
  size_t max_edb_relations = 4;
  /// Facts per EDB relation (uniform in [min, max]).
  size_t min_facts = 4;
  size_t max_facts = 28;
  /// Constants are integers in [0, domain).
  size_t domain = 24;
  /// Probability of appending a comparison builtin (<, <=, >, >=, !=) over
  /// two already-bound variables to the top view's body.
  double builtin_probability = 0.35;
  /// Probability of a stratified `not ...` literal in the top view (all its
  /// variables bound by earlier positive literals). Programs with negation
  /// are exempt from the monotonicity metamorphic check.
  double negation_probability = 0.2;
  /// Probability of wrapping the recursive predicate in a nonrecursive view
  /// (the AND/OR structure NR-OPT actually optimizes).
  double view_probability = 0.7;
  /// Probability of an extra exit rule t(X,Y) <- e'(X,Y) (a second OR
  /// branch into the clique).
  double extra_exit_probability = 0.3;
  /// Query adornment mix: P(first argument bound); independently, P(second
  /// argument bound as well) — both-bound is a boolean query.
  double bound_query_probability = 0.55;
  double second_bound_probability = 0.15;
  /// Probability of injecting a statically dead rule: an extra exit rule
  /// whose body carries a sort-conflicting builtin (`X = zz_dead` where X
  /// ranges over the numeric EDB), so it derives nothing at run time and
  /// the semantic analyzer proves it unsatisfiable. Exercises dead-rule
  /// elimination in the differential matrix: answers must not change.
  /// Off (0.0) by default to preserve existing seed -> program mappings.
  double dead_rule_probability = 0.0;
  /// Probability of injecting an unreachable derived predicate
  /// (`zz_unreach(X,Y) <- e0(X,Y).` with nothing referring to it) that
  /// reachability-based dead-rule elimination must drop.
  /// Off (0.0) by default to preserve existing seed -> program mappings.
  double unreachable_predicate_probability = 0.0;
  /// Probability of wrapping the query predicate in rules over complex
  /// terms: a view that builds `w(f(X, Y))` and a query predicate `cx` that
  /// destructures it, reads it with a repeated variable (`w(f(X, X))`),
  /// probes an EDB relation on a body constant, and assigns `Z = Y + 1`.
  /// The query keeps its arguments and moves to `cx`. Exercises the engine's
  /// match paths (function patterns, repeated variables, constants, `=`)
  /// under every method's binding states.
  /// Off (0.0) by default to preserve existing seed -> program mappings.
  double complex_term_probability = 0.0;
};

/// One generated program: stratified rules, a random EDB state, and one
/// query form. Every program this generator emits is safe by construction
/// under *textual* body order (builtins and negation appear after the
/// positive literals binding their variables), so every search strategy —
/// including the lexicographic baseline — must find a finite-cost plan.
struct GeneratedProgram {
  std::vector<Rule> rules;
  std::vector<Literal> facts;  ///< ground EDB facts
  Literal query;
  /// Compact human-readable description of the draw, e.g.
  /// "shape=chain rec=linear view builtin adorn=bf".
  std::string summary;

  bool HasNegation() const;

  /// Round-trippable LDL text: facts, rules, then the query form
  /// ("goal?"). Parsing it back yields the same program — the format the
  /// shrinker writes as repro-*.ldl.
  std::string ToLdl() const;

  /// Rule base as a validated Program (facts excluded).
  Result<Program> BuildProgram() const;

  /// Loads the facts into `db` (relations created on demand).
  Status BuildDatabase(Database* db) const;
};

/// Draws one program from the grammar. Deterministic in (*rng, options):
/// the same seed always yields the same program — repro stability leans on
/// the Rng sequence guarantee documented in base/rng.h.
GeneratedProgram GenerateProgram(Rng* rng, const ProgramGenOptions& options);

}  // namespace testing
}  // namespace ldl

#endif  // LDLOPT_TESTING_PROGRAM_GEN_H_
