#ifndef LDLOPT_GRAPH_ADORNMENT_H_
#define LDLOPT_GRAPH_ADORNMENT_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "base/status.h"
#include "graph/binding.h"

namespace ldl {

/// Chooses the SIP (sideways-information-passing order) for each rule: a
/// permutation of the body literal positions. "A given permutation is
/// associated with a unique SIP" (paper section 2). The default is the
/// textual left-to-right order.
class SipStrategy {
 public:
  SipStrategy() = default;

  /// Fixes the body order for `rule_index` (a permutation of 0..n-1),
  /// regardless of the head adornment.
  void SetOrder(size_t rule_index, std::vector<size_t> order);

  /// Fixes the body order for `rule_index` when its head is adorned `adn`.
  /// Takes precedence over SetOrder; the optimizer uses this because the
  /// best SIP generally depends on the binding (section 7.2).
  void SetOrderForAdornment(size_t rule_index, const Adornment& adn,
                            std::vector<size_t> order);

  /// The body order for a rule under `head_adn`; falls back to the
  /// adornment-independent order, then to identity.
  std::vector<size_t> OrderFor(size_t rule_index, size_t body_size,
                               const Adornment& head_adn = Adornment()) const;

  bool HasOrder(size_t rule_index) const {
    return orders_.count(rule_index) > 0;
  }

  /// Every SetOrderForAdornment order, keyed and sorted by (rule index,
  /// head adornment): the SIPs the magic rewrite executes.
  const std::map<std::pair<size_t, std::string>, std::vector<size_t>>&
  adorned_orders() const {
    return adorned_orders_;
  }

 private:
  std::unordered_map<size_t, std::vector<size_t>> orders_;
  std::map<std::pair<size_t, std::string>, std::vector<size_t>>
      adorned_orders_;
};

/// One adorned rule: the original rule with (a) body literals permuted into
/// SIP order, (b) derived predicates renamed to their adorned versions
/// (p becomes `p.bf`), including the head.
struct AdornedRule {
  size_t rule_index = 0;      ///< into Program::rules()
  PredicateId head_original;  ///< head predicate before renaming
  Adornment head_adornment;
  Rule renamed;               ///< SIP-ordered, adorned-renamed rule
  /// The SIP permutation used: renamed.body()[j] came from
  /// original.body()[body_order[j]].
  std::vector<size_t> body_order;
  /// Adornment of each body literal of `renamed` (builtins get an empty
  /// adornment; base literals get their computed binding pattern too, which
  /// the cost model uses for index selection).
  std::vector<Adornment> body_adornments;
  /// For each body position of `renamed`: the *original* predicate id if
  /// that literal is a derived-predicate occurrence, else nullopt. Used by
  /// the magic rewrite to name magic predicates.
  std::vector<std::optional<PredicateId>> body_derived;

  std::string ToString() const;
};

/// The adorned version Pgm' of a program for one query form (paper
/// section 7.3): every derived predicate reachable from the query is
/// replicated per binding pattern in which it is used.
struct AdornedProgram {
  AdornedPredicate query;
  /// The query goal with its original constants (seed for magic sets).
  Literal query_goal;
  std::vector<AdornedRule> rules;
  /// All adorned derived predicates generated, in generation order
  /// (query's own adorned predicate first).
  std::vector<AdornedPredicate> predicates;

  std::string ToString() const;
};

/// Builds the adorned program for `query_goal` over `program` using the
/// given SIPs. Follows the paper's marking procedure: start from the query's
/// adornment, generate an adorned version of each rule whose head unifies,
/// adorning body literals left to right in SIP order; repeat for every newly
/// generated adorned predicate until none is unmarked.
///
/// Fails with kInvalidArgument if the query predicate is not derived.
Result<AdornedProgram> AdornProgramForQuery(const Program& program,
                                            const Literal& query_goal,
                                            const SipStrategy& sips);

}  // namespace ldl

#endif  // LDLOPT_GRAPH_ADORNMENT_H_
