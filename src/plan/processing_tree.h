#ifndef LDLOPT_PLAN_PROCESSING_TREE_H_
#define LDLOPT_PLAN_PROCESSING_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "ast/program.h"
#include "base/status.h"
#include "graph/binding.h"
#include "graph/dependency_graph.h"

namespace ldl {

/// Node kinds of the paper's processing graph (section 4): AND nodes are
/// joins, OR nodes are unions, contracted recursive cliques are CC nodes
/// (atomic fixpoint operators); leaves scan base relations or evaluate
/// builtin predicates.
enum class PlanNodeKind {
  kScan,     ///< leaf: base relation access
  kBuiltin,  ///< leaf: evaluable predicate (comparison / arithmetic)
  kAnd,      ///< join of its children (one rule body); carries a rule index
  kOr,       ///< union of its children (the rules defining a predicate)
  kCc,       ///< contracted clique: least-fixpoint operator
};

const char* PlanNodeKindToString(PlanNodeKind kind);

/// One node of a processing tree. Nodes own their children; a tree is the
/// logically-equivalent-execution artifact the optimizer's search walks and
/// the transformations of section 5 rewrite.
struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kScan;

  /// Square vs triangle node: materialized subtrees are computed bottom-up
  /// in full; pipelined subtrees consume bindings from their left siblings
  /// (sideways information passing).
  bool materialized = true;

  /// EL label: the algorithm implementing the node ("scan", "index-scan",
  /// "nested-loop", "index-join", "hash-join", "union", "naive",
  /// "seminaive", "magic", "counting").
  std::string method;

  /// The goal this node computes: for kScan/kBuiltin the literal itself;
  /// for kOr/kCc the defined predicate's goal pattern; for kAnd the head of
  /// its rule.
  Literal goal;

  /// Binding pattern under which the node is evaluated (PS: bound argument
  /// positions act as selections pushed onto the node).
  Adornment binding;

  /// Projection annotation (PP): columns of `goal` that ancestors actually
  /// need; empty = all.
  std::vector<size_t> projection;

  /// For kAnd: index of the rule in the source program, and the chosen
  /// permutation of the body (children are stored in execution order;
  /// `body_order[j]` is the original body position of child j).
  size_t rule_index = SIZE_MAX;
  std::vector<size_t> body_order;

  /// For kCc: the clique's predicates and rules (copied from the
  /// dependency graph) and the chosen per-rule SIPs (the c-permutation,
  /// PA transformation).
  std::vector<PredicateId> clique_predicates;
  std::vector<size_t> clique_rules;
  std::vector<std::vector<size_t>> clique_orders;

  /// Cost annotations filled by the optimizer.
  double est_cost = 0;
  double est_cardinality = 0;

  std::vector<std::unique_ptr<PlanNode>> children;

  std::unique_ptr<PlanNode> Clone() const;

  /// One-line label: kind, [mat]/[pipe], method, goal, binding, and the
  /// rule index (AND) or clique predicates (CC). The tree rendering and
  /// EXPLAIN's PLAN table both print it.
  std::string Label() const;

  /// Multi-line ASCII rendering (indented tree).
  std::string ToString() const;
};

/// Builds the initial (unoptimized) processing tree for `goal`:
///  - each derived non-recursive predicate expands to an OR node over AND
///    nodes (one per rule), textual body order, all nodes materialized;
///  - each recursive clique is contracted into a single CC node whose
///    children are the subtrees for the non-clique literals used by the
///    clique's rules (the operands of the fixpoint operator);
///  - shared subtrees are replicated, making the graph a tree (section 4).
/// Expansion depth is bounded by the predicate nesting (finite because
/// cliques are contracted).
Result<std::unique_ptr<PlanNode>> BuildProcessingTree(const Program& program,
                                                      const Literal& goal);

/// Number of nodes in the tree.
size_t TreeSize(const PlanNode& node);

}  // namespace ldl

#endif  // LDLOPT_PLAN_PROCESSING_TREE_H_
