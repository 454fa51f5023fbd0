#include "plan/processing_tree.h"

#include <sstream>

#include "base/strings.h"

namespace ldl {

const char* PlanNodeKindToString(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kScan:
      return "SCAN";
    case PlanNodeKind::kBuiltin:
      return "BUILTIN";
    case PlanNodeKind::kAnd:
      return "AND";
    case PlanNodeKind::kOr:
      return "OR";
    case PlanNodeKind::kCc:
      return "CC";
  }
  return "?";
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = kind;
  copy->materialized = materialized;
  copy->method = method;
  copy->goal = goal;
  copy->binding = binding;
  copy->projection = projection;
  copy->rule_index = rule_index;
  copy->body_order = body_order;
  copy->clique_predicates = clique_predicates;
  copy->clique_rules = clique_rules;
  copy->clique_orders = clique_orders;
  copy->est_cost = est_cost;
  copy->est_cardinality = est_cardinality;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

std::string PlanNode::Label() const {
  std::string label = PlanNodeKindToString(kind);
  label += materialized ? " [mat]" : " [pipe]";
  if (!method.empty()) StrAppend(&label, " ", method);
  StrAppend(&label, " ", goal.ToString());
  if (binding.size() > 0) StrAppend(&label, " :", binding.ToString());
  if (kind == PlanNodeKind::kAnd && rule_index != SIZE_MAX) {
    StrAppend(&label, " (rule ", rule_index, ")");
  }
  if (kind == PlanNodeKind::kCc) {
    label += " {";
    for (size_t i = 0; i < clique_predicates.size(); ++i) {
      if (i) label += ", ";
      label += clique_predicates[i].ToString();
    }
    label += "}";
  }
  return label;
}

namespace {

void Render(const PlanNode& node, size_t depth, std::ostringstream& os) {
  for (size_t i = 0; i < depth; ++i) os << "  ";
  os << node.Label();
  if (node.est_cost > 0) {
    os << " cost=" << node.est_cost << " card=" << node.est_cardinality;
  }
  os << '\n';
  for (const auto& child : node.children) Render(*child, depth + 1, os);
}

class TreeBuilder {
 public:
  TreeBuilder(const Program& program, const DependencyGraph& graph)
      : program_(program), graph_(graph) {}

  Result<std::unique_ptr<PlanNode>> BuildGoal(const Literal& goal,
                                              size_t depth) {
    if (depth > 64) {
      return Status::Internal(
          "processing tree nesting exceeded 64 (non-contracted recursion?)");
    }
    if (goal.IsBuiltin()) {
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanNodeKind::kBuiltin;
      node->method = "builtin";
      node->goal = goal;
      return node;
    }
    const PredicateId pred = goal.predicate();
    if (!program_.IsDerived(pred)) {
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanNodeKind::kScan;
      node->method = "scan";
      node->goal = goal;
      node->binding = Adornment::FromGoal(goal);
      return node;
    }
    if (graph_.IsRecursive(pred)) return BuildCc(goal, depth);
    return BuildOr(goal, depth);
  }

 private:
  Result<std::unique_ptr<PlanNode>> BuildOr(const Literal& goal,
                                            size_t depth) {
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNodeKind::kOr;
    node->method = "union";
    node->goal = goal;
    node->binding = Adornment::FromGoal(goal);
    for (size_t rule_index : program_.RulesFor(goal.predicate())) {
      LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> and_node,
                           BuildAnd(rule_index, depth + 1));
      node->children.push_back(std::move(and_node));
    }
    return node;
  }

  Result<std::unique_ptr<PlanNode>> BuildAnd(size_t rule_index, size_t depth) {
    const Rule& rule = program_.rules()[rule_index];
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNodeKind::kAnd;
    node->method = "nested-loop";
    node->goal = rule.head();
    node->rule_index = rule_index;
    node->body_order.resize(rule.body().size());
    for (size_t i = 0; i < rule.body().size(); ++i) {
      node->body_order[i] = i;
      LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> child,
                           BuildGoal(rule.body()[i], depth + 1));
      node->children.push_back(std::move(child));
    }
    return node;
  }

  // Contracted clique node: one node for the whole fixpoint. Its children
  // are the subtrees of the *non-clique* literals appearing in the clique's
  // rules — the operands of the fixpoint operator.
  Result<std::unique_ptr<PlanNode>> BuildCc(const Literal& goal,
                                            size_t depth) {
    const RecursiveClique& clique =
        graph_.cliques()[graph_.CliqueIndex(goal.predicate())];
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNodeKind::kCc;
    node->method = "seminaive";
    node->goal = goal;
    node->binding = Adornment::FromGoal(goal);
    node->clique_predicates = clique.predicates;
    node->clique_rules = clique.exit_rules;
    node->clique_rules.insert(node->clique_rules.end(),
                              clique.recursive_rules.begin(),
                              clique.recursive_rules.end());
    for (size_t rule_index : node->clique_rules) {
      const Rule& rule = program_.rules()[rule_index];
      std::vector<size_t> order(rule.body().size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      node->clique_orders.push_back(std::move(order));
      for (const Literal& lit : rule.body()) {
        if (!lit.IsBuiltin() && clique.Contains(lit.predicate())) continue;
        LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> child,
                             BuildGoal(lit, depth + 1));
        node->children.push_back(std::move(child));
      }
    }
    return node;
  }

  const Program& program_;
  const DependencyGraph& graph_;
};

}  // namespace

std::string PlanNode::ToString() const {
  std::ostringstream os;
  Render(*this, 0, os);
  return os.str();
}

Result<std::unique_ptr<PlanNode>> BuildProcessingTree(const Program& program,
                                                      const Literal& goal) {
  DependencyGraph graph = DependencyGraph::Build(program);
  TreeBuilder builder(program, graph);
  return builder.BuildGoal(goal, 0);
}

size_t TreeSize(const PlanNode& node) {
  size_t n = 1;
  for (const auto& child : node.children) n += TreeSize(*child);
  return n;
}

}  // namespace ldl
