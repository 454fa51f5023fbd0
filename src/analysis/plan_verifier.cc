#include "analysis/plan_verifier.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/strings.h"
#include "graph/binding.h"
#include "safety/safety.h"

namespace ldl {

namespace {

SourceLocation NodeLoc(const PlanNode& node) {
  return SourceLocation::For(
      StrCat(PlanNodeKindToString(node.kind), " ", node.goal.ToString()));
}

bool IsPermutation(const std::vector<size_t>& perm, size_t n) {
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (size_t p : perm) {
    if (p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

/// The EL label sets of §5 (mirrors plan/transform.cc's LabelsFor).
const std::set<std::string>& MethodsFor(PlanNodeKind kind) {
  static const auto* and_labels =
      new std::set<std::string>{"nested-loop", "index-join", "hash-join"};
  static const auto* or_labels = new std::set<std::string>{"union"};
  static const auto* cc_labels =
      new std::set<std::string>{"naive", "seminaive", "magic", "counting"};
  static const auto* scan_labels =
      new std::set<std::string>{"scan", "index-scan"};
  static const auto* builtin_labels = new std::set<std::string>{"builtin"};
  switch (kind) {
    case PlanNodeKind::kAnd:
      return *and_labels;
    case PlanNodeKind::kOr:
      return *or_labels;
    case PlanNodeKind::kCc:
      return *cc_labels;
    case PlanNodeKind::kScan:
      return *scan_labels;
    case PlanNodeKind::kBuiltin:
      return *builtin_labels;
  }
  return *scan_labels;
}

/// A node is "annotated" when it carries a full-arity adornment: builders
/// leave AND bindings empty; Optimizer::AnnotateTree fills every node.
bool HasBinding(const PlanNode& node) {
  return node.binding.size() == node.goal.arity() && node.goal.arity() > 0;
}

}  // namespace

PlanVerifier::PlanVerifier(const Program& program, PlanVerifierOptions options)
    : program_(program),
      options_(options),
      graph_(DependencyGraph::Build(program)) {}

Status PlanVerifier::Verify(const PlanNode& root, DiagnosticSink* sink) const {
  size_t before = sink->error_count();
  VerifyNode(root, sink);
  if (sink->error_count() == before) return Status::OK();
  return sink->ToStatus(StatusCode::kInternal);
}

Status PlanVerifier::Verify(const PlanNode& root) const {
  DiagnosticSink sink;
  return Verify(root, &sink);
}

void PlanVerifier::VerifyNode(const PlanNode& node,
                              DiagnosticSink* sink) const {
  VerifyShape(node, sink);
  VerifyMethod(node, sink);
  switch (node.kind) {
    case PlanNodeKind::kScan:
      VerifyScan(node, sink);
      break;
    case PlanNodeKind::kBuiltin:
      VerifyBuiltin(node, sink);
      break;
    case PlanNodeKind::kAnd:
      VerifyAnd(node, sink);
      break;
    case PlanNodeKind::kOr:
      VerifyOr(node, sink);
      break;
    case PlanNodeKind::kCc:
      VerifyCc(node, sink);
      break;
  }
  for (const auto& child : node.children) {
    if (child == nullptr) {
      sink->Error("V006", "null child pointer", NodeLoc(node));
      continue;
    }
    VerifyNode(*child, sink);
  }
}

void PlanVerifier::VerifyShape(const PlanNode& node,
                               DiagnosticSink* sink) const {
  if (node.binding.size() != 0 && node.binding.size() != node.goal.arity()) {
    sink->Error("V006",
                StrCat("adornment ", node.binding.ToString(), " has size ",
                       node.binding.size(), " but the goal has arity ",
                       node.goal.arity()),
                NodeLoc(node));
  }
  for (size_t i = 0; i < node.projection.size(); ++i) {
    if (node.projection[i] >= node.goal.arity()) {
      sink->Error("V006",
                  StrCat("projection column ", node.projection[i],
                         " out of range for arity ", node.goal.arity()),
                  NodeLoc(node));
    }
    if (i > 0 && node.projection[i] <= node.projection[i - 1]) {
      sink->Error("V006", "projection columns not sorted and duplicate-free",
                  NodeLoc(node));
    }
  }
}

void PlanVerifier::VerifyMethod(const PlanNode& node,
                                DiagnosticSink* sink) const {
  const auto& methods = MethodsFor(node.kind);
  if (!methods.count(node.method)) {
    sink->Error("V004",
                StrCat("method '", node.method, "' is not available for ",
                       PlanNodeKindToString(node.kind), " nodes"),
                NodeLoc(node));
    return;
  }
  if (node.kind == PlanNodeKind::kCc) {
    if (node.method == "magic" && !options_.allow_magic) {
      sink->Error("V004", "magic chosen but disabled by optimizer options",
                  NodeLoc(node));
    }
    if (node.method == "counting" && !options_.allow_counting) {
      sink->Error("V004", "counting chosen but disabled by optimizer options",
                  NodeLoc(node));
    }
  }
}

void PlanVerifier::VerifyScan(const PlanNode& node,
                              DiagnosticSink* sink) const {
  if (node.goal.IsBuiltin()) {
    sink->Error("V005", "scan node holds a builtin goal", NodeLoc(node));
    return;
  }
  if (program_.IsDerived(node.goal.predicate())) {
    sink->Error("V005",
                StrCat("scan of derived predicate ",
                       node.goal.predicate().ToString(),
                       " (tree not expanded)"),
                NodeLoc(node));
  }
  if (!node.children.empty()) {
    sink->Error("V005", "scan node has children", NodeLoc(node));
  }
}

void PlanVerifier::VerifyBuiltin(const PlanNode& node,
                                 DiagnosticSink* sink) const {
  if (!node.goal.IsBuiltin()) {
    sink->Error("V005", "builtin node holds a non-builtin goal",
                NodeLoc(node));
  }
  if (!node.children.empty()) {
    sink->Error("V005", "builtin node has children", NodeLoc(node));
  }
}

void PlanVerifier::VerifyAnd(const PlanNode& node,
                             DiagnosticSink* sink) const {
  if (node.rule_index >= program_.rules().size()) {
    sink->Error("V001",
                StrCat("AND node's rule index ", node.rule_index,
                       " is out of range"),
                NodeLoc(node));
    return;
  }
  const Rule& rule = program_.rules()[node.rule_index];
  if (!(node.goal == rule.head())) {
    sink->Error("V005",
                StrCat("AND goal ", node.goal.ToString(),
                       " differs from the head of rule ", node.rule_index,
                       " (", rule.head().ToString(), ")"),
                NodeLoc(node));
  }
  const size_t body_size = rule.body().size();
  if (node.children.size() != body_size ||
      !IsPermutation(node.body_order, body_size)) {
    sink->Error("V001",
                StrCat("AND children must cover the ", body_size,
                       " body literals of rule ", node.rule_index,
                       " under a body_order permutation (got ",
                       node.children.size(), " children, order of size ",
                       node.body_order.size(), ")"),
                NodeLoc(node));
    return;
  }
  for (size_t j = 0; j < node.children.size(); ++j) {
    if (node.children[j] == nullptr) continue;  // reported by VerifyNode
    const Literal& lit = rule.body()[node.body_order[j]];
    if (!(node.children[j]->goal == lit)) {
      sink->Error("V001",
                  StrCat("child ", j, " computes ",
                         node.children[j]->goal.ToString(),
                         " but body position ", node.body_order[j], " is ",
                         lit.ToString()),
                  NodeLoc(node));
    }
  }

  if (!HasBinding(node)) return;  // unannotated tree: nothing more to check

  // V003: the chosen execution order must be effectively computable under
  // the incoming adornment (paper §8.1) — the safety the optimizer folds
  // into the search as infinite cost.
  Status ec = CheckRuleEc(rule, node.body_order, node.binding);
  if (!ec.ok()) {
    sink->Error("V003",
                StrCat("body order is not effectively computable under "
                       "adornment ",
                       node.binding.ToString(), ": ", ec.message()),
                NodeLoc(node));
  }

  // V002: child adornments must equal the sideways-information-passing walk
  // in execution order, exactly as the engine will evaluate the join.
  BoundVars bound;
  BindHeadVariables(rule.head(), node.binding, &bound);
  for (size_t j = 0; j < node.children.size(); ++j) {
    if (node.children[j] == nullptr) continue;
    const Literal& lit = rule.body()[node.body_order[j]];
    Adornment expected = AdornLiteral(lit, bound);
    const Adornment& actual = node.children[j]->binding;
    if (actual.size() == expected.size() && actual != expected) {
      sink->Error("V002",
                  StrCat("child ", j, " (", lit.ToString(),
                         ") is adorned ", actual.ToString(),
                         " but the SIP walk yields ", expected.ToString()),
                  NodeLoc(node));
    }
    PropagateBindings(lit, &bound);
  }
}

void PlanVerifier::VerifyOr(const PlanNode& node, DiagnosticSink* sink) const {
  if (node.goal.IsBuiltin() || !program_.IsDerived(node.goal.predicate())) {
    sink->Error("V005",
                StrCat("OR goal ", node.goal.ToString(),
                       " is not a derived predicate"),
                NodeLoc(node));
    return;
  }
  const PredicateId pred = node.goal.predicate();
  if (graph_.IsRecursive(pred)) {
    sink->Error("V005",
                StrCat("recursive predicate ", pred.ToString(),
                       " must be a contracted CC node, not an OR node"),
                NodeLoc(node));
    return;
  }
  // V001: exactly one alternative per defining rule.
  std::multiset<size_t> expected(program_.RulesFor(pred).begin(),
                                 program_.RulesFor(pred).end());
  std::multiset<size_t> actual;
  for (const auto& child : node.children) {
    if (child == nullptr) continue;
    if (child->kind != PlanNodeKind::kAnd) {
      sink->Error("V005", "OR child is not an AND node", NodeLoc(node));
      continue;
    }
    actual.insert(child->rule_index);
  }
  if (actual != expected) {
    sink->Error("V001",
                StrCat("OR children must cover exactly the ", expected.size(),
                       " rules defining ", pred.ToString()),
                NodeLoc(node));
  }
  // V002: the union passes its incoming adornment through unchanged, and a
  // pipelined union that receives no bindings contradicts its MP marking.
  if (HasBinding(node)) {
    if (!node.materialized && node.binding.AllArgsFree()) {
      sink->Error("V002",
                  "pipelined OR node under an all-free adornment "
                  "(materialize/pipeline marking inconsistent)",
                  NodeLoc(node));
    }
    for (const auto& child : node.children) {
      if (child == nullptr || child->kind != PlanNodeKind::kAnd) continue;
      if (HasBinding(*child) && child->binding != node.binding) {
        sink->Error("V002",
                    StrCat("OR alternative for rule ", child->rule_index,
                           " is adorned ", child->binding.ToString(),
                           " but the union is adorned ",
                           node.binding.ToString()),
                    NodeLoc(node));
      }
    }
  }
}

void PlanVerifier::VerifyCc(const PlanNode& node, DiagnosticSink* sink) const {
  if (node.goal.IsBuiltin() || !program_.IsDerived(node.goal.predicate())) {
    sink->Error("V005",
                StrCat("CC goal ", node.goal.ToString(),
                       " is not a derived predicate"),
                NodeLoc(node));
    return;
  }
  int ci = graph_.CliqueIndex(node.goal.predicate());
  if (ci < 0) {
    sink->Error("V005",
                StrCat("CC goal ", node.goal.predicate().ToString(),
                       " is not recursive in the program"),
                NodeLoc(node));
    return;
  }
  const RecursiveClique& clique = graph_.cliques()[ci];
  std::set<PredicateId> expected_preds(clique.predicates.begin(),
                                       clique.predicates.end());
  std::set<PredicateId> actual_preds(node.clique_predicates.begin(),
                                     node.clique_predicates.end());
  if (expected_preds != actual_preds) {
    sink->Error("V005",
                "CC clique predicates differ from the program's "
                "dependency-graph clique",
                NodeLoc(node));
  }
  std::set<size_t> expected_rules(clique.exit_rules.begin(),
                                  clique.exit_rules.end());
  expected_rules.insert(clique.recursive_rules.begin(),
                        clique.recursive_rules.end());
  std::set<size_t> actual_rules(node.clique_rules.begin(),
                                node.clique_rules.end());
  if (expected_rules != actual_rules) {
    sink->Error("V001",
                StrCat("CC node must carry exactly the ",
                       expected_rules.size(), " rules of its clique"),
                NodeLoc(node));
  }
  // V001: one c-permutation per clique rule (the PA transformation's shape).
  if (node.clique_orders.size() != node.clique_rules.size()) {
    sink->Error("V001",
                StrCat("CC node carries ", node.clique_orders.size(),
                       " body orders for ", node.clique_rules.size(),
                       " clique rules"),
                NodeLoc(node));
  } else {
    for (size_t i = 0; i < node.clique_rules.size(); ++i) {
      if (node.clique_rules[i] >= program_.rules().size()) {
        sink->Error("V001",
                    StrCat("CC clique rule index ", node.clique_rules[i],
                           " is out of range"),
                    NodeLoc(node));
        continue;
      }
      const Rule& rule = program_.rules()[node.clique_rules[i]];
      if (!IsPermutation(node.clique_orders[i], rule.body().size())) {
        sink->Error("V001",
                    StrCat("c-permutation for clique rule ",
                           node.clique_rules[i],
                           " is not a permutation of its ",
                           rule.body().size(), " body literals"),
                    NodeLoc(node));
      }
    }
  }
  // V005: the CC's children are the fixpoint operator's operands — the
  // non-clique literals of the clique's rules.
  for (const auto& child : node.children) {
    if (child == nullptr || child->goal.IsBuiltin()) continue;
    if (expected_preds.count(child->goal.predicate())) {
      sink->Error("V005",
                  StrCat("CC child computes clique predicate ",
                         child->goal.predicate().ToString(),
                         "; clique members must stay contracted"),
                  NodeLoc(node));
    }
  }
}

}  // namespace ldl
