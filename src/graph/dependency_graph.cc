#include "graph/dependency_graph.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_set>

#include "base/strings.h"

namespace ldl {

bool RecursiveClique::Contains(const PredicateId& pred) const {
  return std::find(predicates.begin(), predicates.end(), pred) !=
         predicates.end();
}

std::string RecursiveClique::ToString() const {
  return StrCat(
      "clique{",
      StrJoin(predicates, ", ", [](const PredicateId& p) { return p.ToString(); }),
      " | ", recursive_rules.size(), " recursive, ", exit_rules.size(),
      " exit rules}");
}

namespace {

/// Tarjan's strongly-connected-components algorithm over the predicate
/// dependency graph, with an explicit stack of frames instead of recursion,
/// so a deep dependency chain cannot overflow the call stack.
class Tarjan {
 public:
  using Graph =
      std::unordered_map<PredicateId, std::vector<PredicateId>, PredicateIdHash>;

  explicit Tarjan(const Graph& graph) : graph_(graph) {}

  /// Returns components in reverse topological order of the condensation
  /// (Tarjan emits a component only after every component reachable from
  /// it). Roots are visited in the given order, NOT hash order, so
  /// component ids (and with them clique indices and the topological
  /// tie-break) are deterministic across runs and platforms.
  std::vector<std::vector<PredicateId>> Run(
      const std::vector<PredicateId>& roots) {
    for (const PredicateId& node : roots) {
      if (graph_.count(node) && !index_.count(node)) Visit(node);
    }
    return components_;
  }

 private:
  /// A node being visited and the position of its next edge: the state a
  /// recursive visit would keep in its call frame.
  struct Frame {
    const PredicateId* node;
    const std::vector<PredicateId>* edges;
    size_t next = 0;
  };

  /// Visits `root` and everything reachable from it, in the order the
  /// recursive formulation would: each edge is taken in adjacency order,
  /// and a child's lowlink is folded into its parent when the child's
  /// frame is popped.
  void Visit(const PredicateId& root) {
    std::vector<Frame> frames;
    Enter(root, &frames);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.next < frame.edges->size()) {
        const PredicateId& w = (*frame.edges)[frame.next++];
        if (!graph_.count(w)) continue;  // edge to base predicate: ignore
        if (!index_.count(w)) {
          Enter(w, &frames);  // invalidates `frame`
        } else if (on_stack_.count(w)) {
          int& low = lowlink_[*frame.node];
          low = std::min(low, index_[w]);
        }
        continue;
      }
      const PredicateId& v = *frame.node;
      if (lowlink_[v] == index_[v]) {
        std::vector<PredicateId> component;
        while (true) {
          PredicateId w = stack_.back();
          stack_.pop_back();
          on_stack_.erase(w);
          component.push_back(w);
          if (w == v) break;
        }
        components_.push_back(std::move(component));
      }
      const int child_low = lowlink_[v];
      frames.pop_back();
      if (!frames.empty()) {
        int& low = lowlink_[*frames.back().node];
        low = std::min(low, child_low);
      }
    }
  }

  /// Numbers `v`, pushes it on the component stack and opens its frame.
  void Enter(const PredicateId& v, std::vector<Frame>* frames) {
    auto it = graph_.find(v);
    index_[v] = lowlink_[v] = counter_++;
    stack_.push_back(v);
    on_stack_.insert(v);
    frames->push_back(Frame{&it->first, &it->second});
  }

  const Graph& graph_;
  std::unordered_map<PredicateId, int, PredicateIdHash> index_;
  std::unordered_map<PredicateId, int, PredicateIdHash> lowlink_;
  std::vector<PredicateId> stack_;
  std::unordered_set<PredicateId, PredicateIdHash> on_stack_;
  std::vector<std::vector<PredicateId>> components_;
  int counter_ = 0;
};

}  // namespace

DependencyGraph DependencyGraph::Build(const Program& program) {
  DependencyGraph g;
  g.program_ = &program;

  // Edges body-pred -> head-pred, restricted to derived predicates.
  Tarjan::Graph graph;
  for (const PredicateId& pred : program.DerivedPredicates()) {
    graph[pred];  // ensure node exists
  }
  // We also need the reverse direction (head -> body) for stratification and
  // reachability; store rule-derived adjacency head -> body preds.
  std::unordered_map<PredicateId, std::vector<PredicateId>, PredicateIdHash>
      uses;  // head -> derived body predicates
  std::unordered_map<PredicateId, std::vector<PredicateId>, PredicateIdHash>
      uses_negated;  // head -> negated derived body predicates
  for (const Rule& rule : program.rules()) {
    const PredicateId head = rule.head().predicate();
    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin()) continue;
      const PredicateId body_pred = lit.predicate();
      if (!program.IsDerived(body_pred)) continue;
      graph[body_pred].push_back(head);
      uses[head].push_back(body_pred);
      if (lit.negated()) uses_negated[head].push_back(body_pred);
    }
  }

  // SCCs. Tarjan emits a component only after all components it can reach
  // (its successors = predicates it is used to define) have been emitted...
  // Actually Tarjan emits components in reverse topological order of the
  // condensation: a component is emitted before any component that can reach
  // it. With edges body->head, the first emitted components are the "top"
  // queries. We therefore reverse to get bottom-up order.
  Tarjan tarjan(graph);
  std::vector<std::vector<PredicateId>> components =
      tarjan.Run(program.DerivedPredicates());  // sorted roots: determinism
  // Determine component ids.
  for (size_t c = 0; c < components.size(); ++c) {
    for (const PredicateId& pred : components[c]) {
      g.nodes_[pred].component = static_cast<int>(c);
    }
  }

  // A component is a recursive clique if it has >1 member or a self-loop.
  g.component_clique_.assign(components.size(), -1);
  for (size_t c = 0; c < components.size(); ++c) {
    bool recursive = components[c].size() > 1;
    if (!recursive) {
      const PredicateId& p = components[c][0];
      auto it = uses.find(p);
      if (it != uses.end() &&
          std::find(it->second.begin(), it->second.end(), p) !=
              it->second.end()) {
        recursive = true;
      }
    }
    if (!recursive) continue;
    RecursiveClique clique;
    clique.predicates = components[c];
    std::sort(clique.predicates.begin(), clique.predicates.end());
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      const Rule& rule = program.rules()[ri];
      if (!clique.Contains(rule.head().predicate())) continue;
      bool rec = false;
      for (const Literal& lit : rule.body()) {
        if (!lit.IsBuiltin() && clique.Contains(lit.predicate())) {
          rec = true;
          break;
        }
      }
      (rec ? clique.recursive_rules : clique.exit_rules).push_back(ri);
    }
    g.component_clique_[c] = static_cast<int>(g.cliques_.size());
    g.cliques_.push_back(std::move(clique));
  }

  // Bottom-up topological order: process components in emission order;
  // with body->head edges Tarjan emits sinks of the condensation first,
  // where sinks are the most-derived (query-level) predicates. Hence
  // reversed emission order is NOT bottom-up; verify: edge body->head means
  // head is reachable from body; Tarjan emits a component when its subtree
  // completes, so successors (heads) are emitted before... Successors are
  // emitted first only when discovered from the body. To be robust we
  // compute an explicit Kahn topological sort of the condensation instead.
  {
    size_t nc = components.size();
    std::vector<std::set<int>> cond_edges(nc);  // comp(body) -> comp(head)
    std::vector<int> indegree(nc, 0);
    for (const auto& [body_pred, heads] : graph) {
      int cb = g.nodes_[body_pred].component;
      for (const PredicateId& head : heads) {
        int ch = g.nodes_[head].component;
        if (cb != ch && cond_edges[cb].insert(ch).second) ++indegree[ch];
      }
    }
    std::vector<int> ready;
    for (size_t c = 0; c < nc; ++c) {
      if (indegree[c] == 0) ready.push_back(static_cast<int>(c));
    }
    std::vector<int> order;
    while (!ready.empty()) {
      int c = ready.back();
      ready.pop_back();
      order.push_back(c);
      for (int d : cond_edges[c]) {
        if (--indegree[d] == 0) ready.push_back(d);
      }
    }
    for (int c : order) {
      std::vector<PredicateId> sorted = components[c];
      std::sort(sorted.begin(), sorted.end());
      for (const PredicateId& pred : sorted) g.topo_order_.push_back(pred);
      g.topo_components_.push_back(std::move(sorted));
    }
  }

  // Strata: stratum(head) >= stratum(body), and > for negated bodies.
  // Iterate to fixpoint over the topological order; detect non-stratified
  // programs (negation inside an SCC).
  for (const Rule& rule : program.rules()) {
    const PredicateId head = rule.head().predicate();
    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin() || !lit.negated()) continue;
      const PredicateId body_pred = lit.predicate();
      if (!program.IsDerived(body_pred)) continue;
      if (g.nodes_[body_pred].component == g.nodes_[head].component) {
        g.stratified_ = Status::InvalidArgument(
            StrCat("program is not stratified: ", head.ToString(),
                   " depends on the negation of ", body_pred.ToString(),
                   " within the same recursive clique"));
      }
    }
  }
  if (g.stratified_.ok()) {
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 1000) {
      changed = false;
      for (const Rule& rule : program.rules()) {
        const PredicateId head = rule.head().predicate();
        int& hs = g.nodes_[head].stratum;
        for (const Literal& lit : rule.body()) {
          if (lit.IsBuiltin()) continue;
          const PredicateId body_pred = lit.predicate();
          if (!program.IsDerived(body_pred)) continue;
          int bs = g.nodes_[body_pred].stratum;
          int need = lit.negated() ? bs + 1 : bs;
          if (hs < need) {
            hs = need;
            changed = true;
          }
        }
      }
    }
  }

  // Keep the direct adjacency around for dataflow clients. `graph` holds
  // the body -> head edges (including ensured empty nodes), `uses` the
  // reverse; both were built in deterministic rule order.
  g.uses_ = std::move(uses);
  g.dependents_ = std::move(graph);

  return g;
}

const std::vector<PredicateId>& DependencyGraph::BodyPredicatesOf(
    const PredicateId& head) const {
  static const std::vector<PredicateId> kEmpty;
  auto it = uses_.find(head);
  return it == uses_.end() ? kEmpty : it->second;
}

const std::vector<PredicateId>& DependencyGraph::DependentsOf(
    const PredicateId& body) const {
  static const std::vector<PredicateId> kEmpty;
  auto it = dependents_.find(body);
  return it == dependents_.end() ? kEmpty : it->second;
}

bool DependencyGraph::IsRecursive(const PredicateId& pred) const {
  return CliqueIndex(pred) >= 0;
}

int DependencyGraph::CliqueIndex(const PredicateId& pred) const {
  auto it = nodes_.find(pred);
  if (it == nodes_.end() || it->second.component < 0) return -1;
  return component_clique_[it->second.component];
}

int DependencyGraph::Stratum(const PredicateId& pred) const {
  auto it = nodes_.find(pred);
  return it == nodes_.end() ? 0 : it->second.stratum;
}

Status DependencyGraph::CheckStratified() const { return stratified_; }

bool DependencyGraph::DependsOn(const PredicateId& user,
                                const PredicateId& used) const {
  // A walk over head -> body edges from `user`, per call: precomputing
  // every predicate's dependency set would be quadratic in a long chain.
  std::unordered_set<PredicateId, PredicateIdHash> visited;
  std::vector<PredicateId> stack{user};
  while (!stack.empty()) {
    const PredicateId cur = std::move(stack.back());
    stack.pop_back();
    for (const PredicateId& next : BodyPredicatesOf(cur)) {
      if (next == used) return true;
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

std::string DependencyGraph::ToString() const {
  std::ostringstream os;
  os << "derived (bottom-up):";
  for (const PredicateId& pred : topo_order_) {
    os << ' ' << pred.ToString();
    int ci = CliqueIndex(pred);
    if (ci >= 0) os << "[C" << ci << "]";
  }
  os << "\n";
  for (size_t i = 0; i < cliques_.size(); ++i) {
    os << "C" << i << ": " << cliques_[i].ToString() << "\n";
  }
  return os.str();
}

}  // namespace ldl
