#ifndef LDLOPT_AST_PROGRAM_H_
#define LDLOPT_AST_PROGRAM_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/literal.h"
#include "ast/rule.h"
#include "base/status.h"

namespace ldl {

/// A query goal with an optional name, e.g. `sg(1, Y)?`. The pattern of
/// bound (constant) and unbound (variable) arguments is the *query form* of
/// the paper's section 2: sg(c, Y)? and sg(X, Y)? are optimized separately.
struct QueryForm {
  Literal goal;

  std::string ToString() const { return goal.ToString() + "?"; }
};

/// The rule base: an ordered collection of rules plus any ground facts that
/// appeared inline in the program text. Provides the predicate-level lookup
/// structure the compiler and optimizer need.
class Program {
 public:
  Program() = default;

  void AddRule(Rule rule);
  /// Ground facts that appeared in the program text (head-only ground rules);
  /// LdlSystem loads them into the Database.
  void AddFact(Literal fact);
  void AddQuery(QueryForm query);

  const std::vector<Rule>& rules() const { return rules_; }
  const std::vector<Literal>& facts() const { return facts_; }
  const std::vector<QueryForm>& queries() const { return queries_; }

  /// Indices (into rules()) of the rules whose head is `pred`.
  const std::vector<size_t>& RulesFor(const PredicateId& pred) const;

  /// True iff at least one rule defines `pred`.
  bool IsDerived(const PredicateId& pred) const;

  /// All predicates appearing as some rule head.
  std::vector<PredicateId> DerivedPredicates() const;

  /// All non-builtin predicates appearing in any rule body or fact but
  /// defined by no rule; these must be base relations in the database.
  std::vector<PredicateId> BasePredicates() const;

  /// Structural sanity checks: consistent arity per predicate name, no rule
  /// head that is a builtin, negation not applied to builtins.
  Status Validate() const;

  /// Predicate name -> the arity a program uses it with.
  using Arities = std::unordered_map<std::string, size_t>;
  /// Validate's checks on the rules and queries alone, as clauses joining
  /// a valid program that uses the predicates in `arities`: each
  /// predicate's arity must also agree with `arities`. On success the
  /// predicates they use are added to `arities`; on failure it is left
  /// unchanged. Costs O(size of these clauses), not of the joined program.
  Status ValidateAdditions(Arities* arities) const;

  std::string ToString() const;

 private:
  std::vector<Rule> rules_;
  std::vector<Literal> facts_;
  std::vector<QueryForm> queries_;
  std::unordered_map<PredicateId, std::vector<size_t>, PredicateIdHash>
      rules_by_head_;
};

}  // namespace ldl

#endif  // LDLOPT_AST_PROGRAM_H_
