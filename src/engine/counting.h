#ifndef LDLOPT_ENGINE_COUNTING_H_
#define LDLOPT_ENGINE_COUNTING_H_

#include <string>
#include <vector>

#include "ast/program.h"
#include "base/status.h"

namespace ldl {

/// Result of the generalized counting rewrite [SZ 86] for a bound query on
/// a linear recursive clique.
struct CountingProgram {
  /// Rewritten rule base over cnt.p / ans.p predicates (counter in arg 0).
  Program rewritten;
  /// Seed fact cnt.p(0, query constants).
  Literal seed;
  /// ans.p: arity = 1 (counter) + number of free query arguments.
  PredicateId answer_pred;
  /// ans.p(0, free-arg terms of the original goal).
  Literal answer_goal;

  std::string ToString() const;
};

/// Tests whether the counting method applies to `query_goal` over `program`
/// and, if so, produces the counting-rewritten program:
///
///   cnt.p(0, b)        for the query's bound constants b;
///   cnt.p(J, rb) <- cnt.p(I, hb), up-part, J = I + 1.   (ascent)
///   ans.p(I, ef) <- cnt.p(I, eb), exit-body.            (per exit rule)
///   ans.p(I, hf) <- ans.p(J, rf), down-part, I = J - 1. (descent)
///
/// Applicability (kUnsupported otherwise):
///  - the query predicate is in a single-predicate recursive clique with
///    exactly one recursive rule, linear (one self-occurrence);
///  - all other body literals are base predicates or builtins;
///  - the query has at least one bound argument, and the recursive call is
///    reached with the same adornment (stable binding passing), and with
///    bound arguments that differ from the head's (a call that repeats
///    them, as right-linear `anc(X, Y) <- par(X, Z), anc(Z, Y).` at `fb`,
///    gives an ascent that never converges);
///  - the body splits into an "up" part (connects bound head arguments to
///    the recursive call's bound arguments) and a "down" part whose
///    variables are disjoint from the up part except through the recursive
///    call — the separability that lets counting forget up-bindings and
///    keep only the level number, which is precisely its advantage over
///    magic sets.
///
/// The classic caveat applies: on cyclic data the ascent never terminates;
/// the evaluator's iteration guard turns that into kResourceExhausted and
/// callers fall back to magic sets.
Result<CountingProgram> CountingRewrite(const Program& program,
                                        const Literal& query_goal);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_COUNTING_H_
