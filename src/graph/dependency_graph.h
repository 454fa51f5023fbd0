#ifndef LDLOPT_GRAPH_DEPENDENCY_GRAPH_H_
#define LDLOPT_GRAPH_DEPENDENCY_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "base/status.h"

namespace ldl {

/// A maximal set of mutually recursive predicates (paper section 2: the
/// implication relation partitions recursive predicates into disjoint
/// "recursive cliques"), together with the rules that define them.
struct RecursiveClique {
  std::vector<PredicateId> predicates;
  /// Indices into Program::rules() of every rule whose head is in the
  /// clique. Partitioned into:
  std::vector<size_t> recursive_rules;  ///< body mentions a clique predicate
  std::vector<size_t> exit_rules;       ///< body does not

  bool Contains(const PredicateId& pred) const;
  std::string ToString() const;
};

/// The predicate dependency graph of a rule base: P -> Q when P occurs in
/// the body of a rule with head Q. Strongly connected components with a
/// cycle are the recursive cliques; the condensation provides the "follow"
/// partial order and the stratification used for negation.
class DependencyGraph {
 public:
  /// Builds the graph for `program`. The program must outlive the graph.
  static DependencyGraph Build(const Program& program);

  /// True iff `pred` belongs to a recursive clique (including direct
  /// self-recursion).
  bool IsRecursive(const PredicateId& pred) const;

  /// Index into cliques() or -1.
  int CliqueIndex(const PredicateId& pred) const;

  const std::vector<RecursiveClique>& cliques() const { return cliques_; }

  /// All derived predicates in bottom-up dependency order: if P is used to
  /// define Q (directly or transitively), P precedes Q. Mutually recursive
  /// predicates appear adjacently in clique order.
  const std::vector<PredicateId>& topological_order() const {
    return topo_order_;
  }

  /// Bottom-up order grouped by strongly connected component: each inner
  /// vector is either a single non-recursive predicate or the predicates of
  /// one recursive clique.
  const std::vector<std::vector<PredicateId>>& topological_components() const {
    return topo_components_;
  }

  /// Stratum number of a derived predicate (0 = lowest). Base predicates
  /// report stratum 0. Meaningful only when CheckStratified() passed.
  int Stratum(const PredicateId& pred) const;

  /// Verifies that no predicate depends on its own negation (stratified
  /// negation, [BN 87] in the paper). Returns kInvalidArgument otherwise.
  Status CheckStratified() const;

  /// True iff `user` depends (directly or transitively) on `used`;
  /// the paper's `used => user` implication. Walks the graph from `user`
  /// on each call.
  bool DependsOn(const PredicateId& user, const PredicateId& used) const;

  /// Direct adjacency exports for dataflow clients (analysis/dataflow.h).
  /// Derived body predicates of `head`'s rules, in rule/body order (one
  /// entry per occurrence, duplicates preserved). Empty for unknown preds.
  const std::vector<PredicateId>& BodyPredicatesOf(
      const PredicateId& head) const;
  /// Derived heads whose rules mention `body` positively or negated, in
  /// rule order (one entry per occurrence). Empty for unknown preds.
  const std::vector<PredicateId>& DependentsOf(const PredicateId& body) const;

  std::string ToString() const;

 private:
  struct NodeInfo {
    int component = -1;
    int stratum = 0;
  };

  const Program* program_ = nullptr;
  std::unordered_map<PredicateId, NodeInfo, PredicateIdHash> nodes_;
  std::vector<RecursiveClique> cliques_;
  // component id -> clique index (-1 for non-recursive components).
  std::vector<int> component_clique_;
  std::vector<PredicateId> topo_order_;
  std::vector<std::vector<PredicateId>> topo_components_;
  // Direct adjacency, both directions (see BodyPredicatesOf/DependentsOf).
  std::unordered_map<PredicateId, std::vector<PredicateId>, PredicateIdHash>
      uses_;        // head -> derived body predicates
  std::unordered_map<PredicateId, std::vector<PredicateId>, PredicateIdHash>
      dependents_;  // body -> derived heads using it
  Status stratified_ = Status::OK();
};

}  // namespace ldl

#endif  // LDLOPT_GRAPH_DEPENDENCY_GRAPH_H_
