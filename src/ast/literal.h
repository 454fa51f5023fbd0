#ifndef LDLOPT_AST_LITERAL_H_
#define LDLOPT_AST_LITERAL_H_

#include <ostream>
#include <string>
#include <vector>

#include "ast/term.h"
#include "base/hash.h"

namespace ldl {

/// Identifies a predicate by name and arity, e.g. sg/2. Base relations and
/// derived predicates share this namespace; a predicate is "base" iff the
/// database has a relation for it and no rule defines it.
struct PredicateId {
  std::string name;
  size_t arity = 0;

  bool operator==(const PredicateId& other) const {
    return arity == other.arity && name == other.name;
  }
  bool operator!=(const PredicateId& other) const { return !(*this == other); }
  bool operator<(const PredicateId& other) const {
    if (name != other.name) return name < other.name;
    return arity < other.arity;
  }

  /// "name/arity".
  std::string ToString() const;
};

struct PredicateIdHash {
  size_t operator()(const PredicateId& p) const {
    size_t seed = 0;
    HashValue(&seed, p.name);
    HashValue(&seed, p.arity);
    return seed;
  }
};

/// Evaluable (built-in) comparison predicates. Formally these denote
/// infinite relations (paper section 8): x = y+1 is the set of all pairs
/// satisfying it, which is why their execution must wait for bindings.
enum class BuiltinKind {
  kNone = 0,  ///< Ordinary (base or derived) predicate.
  kEq,        ///< =   (unification / arithmetic assignment)
  kNe,        ///< !=
  kLt,        ///< <
  kLe,        ///< <=
  kGt,        ///< >
  kGe,        ///< >=
};

/// Returns the surface syntax for a builtin ("=", "<", ...).
const char* BuiltinKindToString(BuiltinKind kind);

/// A literal occurring in a rule body (or as a rule head / query goal):
/// an optionally negated predicate applied to terms, or a builtin
/// comparison between two terms.
class Literal {
 public:
  Literal() = default;

  /// Ordinary positive literal p(t1, ..., tn).
  static Literal Make(std::string predicate, std::vector<Term> args);
  /// Negated literal: not p(t1, ..., tn). Only valid in rule bodies and only
  /// for stratified programs.
  static Literal MakeNegated(std::string predicate, std::vector<Term> args);
  /// Builtin comparison lhs <op> rhs.
  static Literal MakeBuiltin(BuiltinKind kind, Term lhs, Term rhs);

  const std::string& predicate_name() const { return predicate_; }
  PredicateId predicate() const { return {predicate_, args_.size()}; }
  const std::vector<Term>& args() const { return args_; }
  size_t arity() const { return args_.size(); }
  /// Moves the arguments out; the literal keeps none afterwards.
  std::vector<Term> TakeArgs() { return std::move(args_); }

  bool negated() const { return negated_; }
  BuiltinKind builtin() const { return builtin_; }
  bool IsBuiltin() const { return builtin_ != BuiltinKind::kNone; }

  /// Appends all variable names occurring in the literal's arguments.
  void CollectVariables(std::vector<std::string>* out) const;

  /// Returns a copy with the same predicate/builtin/negation but new args.
  Literal WithArgs(std::vector<Term> args) const;
  /// Returns a copy with a different predicate name (same args). Used by the
  /// adornment and magic-set rewrites to rename p into p.bf / magic.p.bf.
  Literal WithPredicateName(std::string name) const;

  bool operator==(const Literal& other) const;

  std::string ToString() const;

 private:
  std::string predicate_;
  std::vector<Term> args_;
  bool negated_ = false;
  BuiltinKind builtin_ = BuiltinKind::kNone;
};

std::ostream& operator<<(std::ostream& os, const Literal& literal);

}  // namespace ldl

#endif  // LDLOPT_AST_LITERAL_H_
