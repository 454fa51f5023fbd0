#ifndef LDLOPT_ENGINE_BUILTINS_H_
#define LDLOPT_ENGINE_BUILTINS_H_

#include <optional>

#include "ast/literal.h"
#include "ast/term.h"
#include "ast/value.h"
#include "base/status.h"

namespace ldl {

// Reentrancy contract: every function in this header is a pure function of
// its arguments — no mutable static or global state (audited; the only
// function-local statics in the evaluation stack are immutable
// empty-collection singletons with thread-safe initialization, in term.cc
// and relation.cc). Concurrently evaluating LdlSystem instances may
// therefore call these from any number of threads. Pinned by
// LdlSystemTest.ConcurrentIndependentSystems in tests/ldl_test.cc, which
// the TSan CI leg runs.

/// Evaluates ground arithmetic inside `t`: function terms with functors
/// + - * / mod over numeric arguments are folded to numeric constants;
/// everything else (data constructors, symbols) is left intact.
/// Returns kInvalidArgument on division by zero.
Result<Term> EvalArithmetic(const Term& t);

/// True iff `t` contains any arithmetic functor (+ - * / mod).
bool ContainsArithmetic(const Term& t);

/// True iff the ground terms `a` and `b` unify: structural equality in
/// which numbers compare by value across kinds (1 unifies with 1.0, at any
/// depth). This is the one equality of matching and of `=`.
bool GroundUnifies(const Term& a, const Term& b);

/// The ground builtin evaluator: the outcome of the comparison
/// `lhs <kind> rhs` over ground sides. Both sides are folded first
/// (EvalArithmetic); an arithmetic error makes the comparison false.
/// `=` compares by GroundUnifies; < <= > >= != compare numerically when
/// both sides are numeric, by term order otherwise.
bool EvalGroundBuiltin(BuiltinKind kind, const Term& lhs, const Term& rhs);

/// EvalArithmetic over a value of `store`: the folded value, or nullopt on
/// an arithmetic error. A value holding no arithmetic is returned as is,
/// after one flag test.
std::optional<Value> FoldArithmetic(Value v, ValueStore* store);

/// `lhs op rhs` for the arithmetic functor `op` (ValueStore::kPlus ..
/// kMod) over numeric values of `store`, as EvalArithmetic computes it;
/// nullopt on an arithmetic error.
std::optional<Value> ApplyArithmetic(uint32_t op, Value lhs, Value rhs,
                                     ValueStore* store);

/// EvalGroundBuiltin over values of `store`, with the same outcomes.
bool EvalGroundBuiltin(BuiltinKind kind, Value lhs, Value rhs,
                       ValueStore* store);

/// Static EC test used by the safety analysis and by the adornment walk:
/// given which argument sides are fully bound, is the builtin computable?
/// (paper section 8.1: "patterns of argument bindings that ensure EC are
/// simple to derive for comparison predicates"). This raw form ignores
/// term structure; prefer BuiltinComputable below.
bool BuiltinComputableWith(BuiltinKind kind, bool lhs_bound, bool rhs_bound);

/// Structure-aware EC test for a builtin literal, the one the compiled rule
/// applies. For `=` the paper's rule is directional: "we are ensured of EC
/// as soon as all the variables in *expression* are instantiated".
/// Evaluating a ground side and matching the other side against it works
/// only when the unbound side is a pure constructor pattern — an unbound
/// side containing arithmetic (X = Y / 2 with Y free) would need equation
/// solving, which the engine does not do.
bool BuiltinComputable(const Literal& lit, bool lhs_bound, bool rhs_bound);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_BUILTINS_H_
