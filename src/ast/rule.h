#ifndef LDLOPT_AST_RULE_H_
#define LDLOPT_AST_RULE_H_

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "ast/literal.h"

namespace ldl {

/// A Horn-clause rule: head <- body. An empty body makes the rule a fact
/// definition (the parser routes ground facts to the database instead).
class Rule {
 public:
  Rule() = default;
  Rule(Literal head, std::vector<Literal> body)
      : head_(std::move(head)), body_(std::move(body)) {}

  const Literal& head() const { return head_; }
  const std::vector<Literal>& body() const { return body_; }
  std::vector<Literal>* mutable_body() { return &body_; }
  Literal* mutable_head() { return &head_; }

  /// Distinct variable names occurring anywhere in the rule, in first-
  /// occurrence order.
  std::vector<std::string> Variables() const;

  /// Variables the body grounds: every variable of a positive, non-builtin
  /// literal, closed under `=` (X = expr grounds X once all of expr's
  /// variables are grounded, and vice versa).
  std::set<std::string> GroundedVariables() const;

  /// Range restriction: every head variable occurs in a positive,
  /// non-builtin body literal or in the right-hand side chain of `=`
  /// builtins grounded by such literals. (A necessary condition for safety;
  /// the full analysis lives in src/safety.)
  bool IsRangeRestricted() const;

  /// "h(..) <- b1(..), b2(..)."
  std::string ToString() const;

 private:
  Literal head_;
  std::vector<Literal> body_;
};

std::ostream& operator<<(std::ostream& os, const Rule& rule);

}  // namespace ldl

#endif  // LDLOPT_AST_RULE_H_
